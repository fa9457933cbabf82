//! Conventional homogeneous CGRA (the Fig. 7a baseline, end-to-end).
//!
//! A scalar 4×4 CGRA whose every tile carries the same plain ALU: no
//! heterogeneous special-function tiles, no Table 4 fusion, no unrolling,
//! no INT16 lanes — the configuration Fig. 7a's per-kernel speedups are
//! measured against, here promoted to a full end-to-end comparison target.
//! Each nonlinear kernel loop is modulo-scheduled once (UF 1) with the
//! special ops lowered to their scalar expansions, and the resulting IIs
//! price the whole trace. The memory system is equally conventional:
//! no streaming against the systolic array and no channel-wise double
//! buffering, so every operator round-trips its tensors over DMA.

use crate::common::{Hosted, NonlinearExecutor, UnitCost};
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::{map_dfg, Mapping};
use picachu_compiler::transform::lower_special_ops;
use picachu_ir::kernels::kernel_library;
use picachu_nonlinear::NonlinearOp;
use std::collections::HashMap;

/// Mapper seed for the baseline compilations — the same seed Fig. 7a uses,
/// so the per-kernel IIs here are the figure's baseline IIs exactly.
const BASELINE_SEED: u64 = 9;

/// Homogeneous-CGRA cost model: per-op mappings compiled once at
/// construction, plus the conventional (round-trip) memory path.
#[derive(Debug, Clone)]
pub struct HomogeneousCgraModel {
    /// One UF-1 mapping per kernel loop, per operation.
    mappings: HashMap<NonlinearOp, Vec<Mapping>>,
    /// DMA bytes per cycle for the exposed round trips.
    pub dma_bytes_per_cycle: f64,
    /// Element width in bytes.
    pub elem_bytes: f64,
}

impl Default for HomogeneousCgraModel {
    fn default() -> HomogeneousCgraModel {
        HomogeneousCgraModel::new(4, 4)
    }
}

impl HomogeneousCgraModel {
    /// Compiles every paper kernel onto an `rows × cols` homogeneous scalar
    /// fabric (lowered special ops, UF 1, no fusion).
    ///
    /// # Panics
    /// Panics if a kernel loop fails to map — a fabric misconfiguration
    /// (the 4×4 default is proven by the Fig. 7a harness), not a runtime
    /// condition.
    pub fn new(rows: usize, cols: usize) -> HomogeneousCgraModel {
        let spec = CgraSpec::homogeneous(rows, cols);
        let mut mappings: HashMap<NonlinearOp, Vec<Mapping>> = HashMap::new();
        for k in kernel_library(4) {
            let Some(op) = NonlinearOp::ALL.iter().copied().find(|o| o.name() == k.name) else {
                continue; // alternate kernels (e.g. gelu-lut) are not trace ops
            };
            let loops = k
                .loops
                .iter()
                .map(|l| {
                    map_dfg(&lower_special_ops(&l.dfg), &spec, BASELINE_SEED)
                        .unwrap_or_else(|e| panic!("{}: baseline map failed: {e}", l.label))
                })
                .collect();
            mappings.insert(op, loops);
        }
        HomogeneousCgraModel { mappings, dma_bytes_per_cycle: 16.0, elem_bytes: 2.0 }
    }

    /// The homogeneous CGRA behind the unified `Accelerator` contract.
    /// Sixteen scalar tiles are roughly the silicon of PICACHU's fabric
    /// without the special FUs (~1.1 mm², ~160 mW active).
    pub fn hosted() -> Hosted<HomogeneousCgraModel> {
        Hosted::new(
            HomogeneousCgraModel::default(),
            UnitCost { area_mm2: 1.1, power_mw: 160.0 },
        )
    }
}

impl NonlinearExecutor for HomogeneousCgraModel {
    fn name(&self) -> &'static str {
        "CGRA-base"
    }

    fn nonlinear_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64 {
        let elems = (rows * channel) as u64;
        self.mappings
            .get(&op)
            .map(|loops| loops.iter().map(|m| m.cycles_for(elems)).sum::<u64>())
            .unwrap_or(0) as f64
    }

    fn data_movement_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64 {
        // no streaming, no double buffering: all input tensors in and the
        // result back out over DMA, fully exposed
        let tensors = (op.input_arity() + 1) as f64;
        (rows * channel) as f64 * self.elem_bytes * tensors / self.dma_bytes_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_backend::Accelerator;
    use picachu_llm::ModelConfig;

    #[test]
    fn every_trace_op_has_a_compiled_kernel() {
        let m = HomogeneousCgraModel::default();
        for op in NonlinearOp::ALL {
            assert!(
                m.nonlinear_cycles(op, 4, 16) > 0.0,
                "{op:?} has no baseline mapping"
            );
        }
    }

    #[test]
    fn end_to_end_slower_than_tandem() {
        // The homogeneous baseline must lose to Tandem-class vector
        // execution (the Fig. 7a premise scaled end-to-end): its scalar
        // IIs cost multiple cycles per element.
        let cfg = ModelConfig::gpt2();
        let base = HomogeneousCgraModel::hosted().execute_model(&cfg, 256);
        let tan = crate::TandemModel::hosted().execute_model(&cfg, 256);
        assert!(base.total() > tan.total(), "{} vs {}", base.total(), tan.total());
    }

    #[test]
    fn hosted_backend_reports_sane_rows() {
        let mut b = HomogeneousCgraModel::hosted();
        let r = b.execute_model(&ModelConfig::gpt2(), 128);
        assert!(r.is_sane() && r.total() > 0.0);
        assert_eq!(r.backend, "CGRA-base");
    }
}
