//! Tandem-class processor (the Fig. 8b baseline).
//!
//! Tandem (ASPLOS '24) couples a general-purpose vector processor to the
//! GEMM engine so *every* non-GEMM operator runs at vector rate — its
//! weakness is accuracy (it computes nonlinear operations with the
//! I-BERT/gemmlowp integer algorithms of Table 2), not operator coverage.
//! Performance-wise it is the strongest baseline: PICACHU's edge comes from
//! its fused single-cycle patterns and the shared-buffer streaming, giving
//! the paper's ≤1.55× speedups on BERT/GPT-2.

use crate::common::{Hosted, NonlinearExecutor, UnitCost};
use picachu_nonlinear::NonlinearOp;

/// Tandem-class cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TandemModel {
    /// Vector lanes (elements/cycle for simple ops).
    pub lanes: f64,
    /// Element width in bytes.
    pub elem_bytes: f64,
    /// DMA bytes per cycle (Tandem streams, but reduction ops still pay a
    /// partial round trip without PICACHU's channel-wise double buffering).
    pub dma_bytes_per_cycle: f64,
}

impl Default for TandemModel {
    fn default() -> TandemModel {
        TandemModel { lanes: 16.0, elem_bytes: 2.0, dma_bytes_per_cycle: 16.0 }
    }
}

impl TandemModel {
    /// Tandem behind the unified `Accelerator` contract. The 16-lane
    /// tightly-coupled vector processor is substantially bigger silicon
    /// than fixed-function units (~1.8 mm², ~250 mW active).
    pub fn hosted() -> Hosted<TandemModel> {
        Hosted::new(
            TandemModel::default(),
            UnitCost { area_mm2: 1.8, power_mw: 250.0 },
        )
    }

    /// Vector micro-op count per element: the I-BERT/gemmlowp integer
    /// recipes are chains of dependent vector instructions (quantize,
    /// range-reduce, polynomial, requantize), so each element costs many
    /// issue slots even at vector width.
    pub fn micro_ops(op: NonlinearOp) -> f64 {
        match op {
            NonlinearOp::Relu => 2.0,
            NonlinearOp::Softmax => 18.0, // max, i-exp chain, sum, divide, requant
            NonlinearOp::Gelu | NonlinearOp::Geglu => 12.0, // i-gelu polynomial
            NonlinearOp::Silu | NonlinearOp::Swiglu => 14.0,
            NonlinearOp::LayerNorm => 10.0,
            NonlinearOp::RmsNorm => 8.0,
            NonlinearOp::Rope => 16.0,
        }
    }
}

impl NonlinearExecutor for TandemModel {
    fn name(&self) -> &'static str {
        "Tandem"
    }

    fn nonlinear_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64 {
        (rows * channel) as f64 * TandemModel::micro_ops(op) / self.lanes
    }

    fn data_movement_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64 {
        // reduction ops round-trip the scratchpad without PICACHU's
        // channel-wise double buffering
        if matches!(
            op,
            NonlinearOp::Softmax | NonlinearOp::LayerNorm | NonlinearOp::RmsNorm
        ) {
            (rows * channel) as f64 * self.elem_bytes * 2.0 / self.dma_bytes_per_cycle
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;
    use crate::gemmini::GemminiModel;
    use picachu_backend::Accelerator;
    use picachu_llm::ModelConfig;

    #[test]
    fn tandem_covers_all_ops_at_vector_rate() {
        // Tandem has no per-operator cliffs (unlike Gemmini's scalar
        // fallback): every operator costs at most ~1.2 cycles/element.
        let t = TandemModel::default();
        for op in NonlinearOp::ALL {
            let c = t.nonlinear_cycles(op, 100, 100);
            assert!(c <= 12_000.0, "{op}: {c}");
        }
    }

    #[test]
    fn tandem_beats_cpu_and_gemmini_on_llama() {
        let cfg = ModelConfig::llama2_7b();
        let t = TandemModel::hosted().execute_model(&cfg, 1024).total();
        let c = CpuModel::hosted().execute_model(&cfg, 1024).total();
        let g = GemminiModel::hosted().execute_model(&cfg, 1024).total();
        assert!(t < c && t < g, "tandem {t} vs cpu {c} gemmini {g}");
    }

    #[test]
    fn relu_is_cheapest() {
        let t = TandemModel::default();
        assert!(
            t.nonlinear_cycles(NonlinearOp::Relu, 10, 10)
                < t.nonlinear_cycles(NonlinearOp::Softmax, 10, 10)
        );
    }
}
