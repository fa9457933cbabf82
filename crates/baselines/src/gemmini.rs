//! Gemmini-class accelerator (the Fig. 8a "Gemmini" baseline).
//!
//! Gemmini pairs the systolic array with **dedicated hardware units** for the
//! nonlinear operations it was designed around — ReLU, GeLU, Softmax and
//! LayerNorm — and offloads everything else (SwiGLU, RMSNorm, RoPE, the
//! gated variants) to its on-chip RISC-V scalar core. That asymmetry is
//! exactly what Fig. 8a shows: competitive on GPT2-XL/OPT, far behind on the
//! LLaMA models. Gemmini also lacks PICACHU's streaming/double-buffering, so
//! reduction ops pay exposed DMA time.

use crate::common::{Hosted, NonlinearExecutor, UnitCost};
use picachu_nonlinear::NonlinearOp;

/// Gemmini-class cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemminiModel {
    /// Lanes of the dedicated nonlinear units (elements/cycle).
    pub dedicated_lanes: f64,
    /// RISC-V scalar fallback cost in cycles per element.
    pub scalar_cycles_per_element: f64,
    /// DMA bytes per cycle for the exposed (un-overlapped) transfers.
    pub dma_bytes_per_cycle: f64,
    /// Element width in bytes.
    pub elem_bytes: f64,
}

impl Default for GemminiModel {
    fn default() -> GemminiModel {
        GemminiModel {
            dedicated_lanes: 16.0,
            scalar_cycles_per_element: 30.0,
            dma_bytes_per_cycle: 16.0,
            elem_bytes: 2.0,
        }
    }
}

impl GemminiModel {
    /// Gemmini behind the unified `Accelerator` contract. The dedicated
    /// ReLU/GeLU/Softmax/LayerNorm pipelines plus the RISC-V scalar core
    /// are small fixed-function silicon (~0.6 mm², ~90 mW active).
    pub fn hosted() -> Hosted<GemminiModel> {
        Hosted::new(
            GemminiModel::default(),
            UnitCost { area_mm2: 0.6, power_mw: 90.0 },
        )
    }

    /// Whether Gemmini has a dedicated unit for the operation.
    pub fn has_dedicated_unit(op: NonlinearOp) -> bool {
        matches!(
            op,
            NonlinearOp::Relu | NonlinearOp::Gelu | NonlinearOp::Softmax | NonlinearOp::LayerNorm
        )
    }
}

impl NonlinearExecutor for GemminiModel {
    fn name(&self) -> &'static str {
        "Gemmini"
    }

    fn nonlinear_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64 {
        let elems = (rows * channel) as f64;
        if GemminiModel::has_dedicated_unit(op) {
            // pipelined dedicated unit; softmax makes two passes (max+exp,
            // then divide), norms two (stats, then scale)
            let passes = match op {
                NonlinearOp::Softmax | NonlinearOp::LayerNorm => 2.0,
                _ => 1.0,
            };
            elems * passes / self.dedicated_lanes
        } else {
            // RISC-V scalar core fallback
            elems * self.scalar_cycles_per_element
        }
    }

    fn data_movement_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64 {
        // reduction ops round-trip through scratchpad/DRAM without
        // double-buffering; element-wise ops consume the array's output
        // directly. The scalar fallback also round-trips.
        let needs_round_trip = matches!(
            op,
            NonlinearOp::Softmax | NonlinearOp::LayerNorm | NonlinearOp::RmsNorm
        ) || !GemminiModel::has_dedicated_unit(op);
        if needs_round_trip {
            let tensors = (op.input_arity() + 1) as f64;
            (rows * channel) as f64 * self.elem_bytes * tensors / self.dma_bytes_per_cycle
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;
    use picachu_backend::Accelerator;
    use picachu_llm::ModelConfig;

    #[test]
    fn dedicated_unit_coverage_matches_paper() {
        assert!(GemminiModel::has_dedicated_unit(NonlinearOp::Gelu));
        assert!(GemminiModel::has_dedicated_unit(NonlinearOp::Softmax));
        assert!(!GemminiModel::has_dedicated_unit(NonlinearOp::Swiglu));
        assert!(!GemminiModel::has_dedicated_unit(NonlinearOp::RmsNorm));
        assert!(!GemminiModel::has_dedicated_unit(NonlinearOp::Rope));
    }

    #[test]
    fn fallback_is_much_slower() {
        let g = GemminiModel::default();
        let fast = g.nonlinear_cycles(NonlinearOp::Gelu, 100, 100);
        let slow = g.nonlinear_cycles(NonlinearOp::Swiglu, 100, 100);
        assert!(slow > 100.0 * fast);
    }

    #[test]
    fn gemmini_beats_cpu_on_opt_but_not_llama() {
        // the Fig. 8a pattern
        let (mut gem, mut cpu) = (GemminiModel::hosted(), CpuModel::hosted());
        let opt = ModelConfig::opt_6_7b();
        let llama = ModelConfig::llama2_13b();
        let gem_opt = gem.execute_model(&opt, 1024).total();
        let cpu_opt = cpu.execute_model(&opt, 1024).total();
        assert!(gem_opt < cpu_opt, "Gemmini should win on OPT");
        let gem_llama = gem.execute_model(&llama, 1024).total();
        let cpu_llama = cpu.execute_model(&llama, 1024).total();
        assert!(gem_llama > cpu_llama, "Gemmini should lose on LLaMA2");
    }
}
