//! Shared accounting for end-to-end comparisons.
//!
//! The latency decomposition itself is the workspace-canonical
//! [`picachu_backend::Breakdown`] (re-exported here for backward
//! compatibility); this module contributes the systolic-hosted execution
//! harness: every baseline except the GPU shares PICACHU's systolic array
//! for GEMMs and differs only in its nonlinear path, so [`Hosted`] lifts
//! any [`NonlinearExecutor`] cost model onto the unified
//! [`Accelerator`] backend contract.

pub use picachu_backend::Breakdown;
use picachu_backend::{Accelerator, ExecutionReport};
use picachu_cgra::cost::CostModel;
use picachu_llm::trace::TraceOp;
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;
use picachu_systolic::SystolicArray;

/// A device that can execute nonlinear operations: the common interface the
/// trace evaluators use. Returns cycles for `rows` channels of `channel`
/// elements.
pub trait NonlinearExecutor {
    /// Device name for tables/figures.
    fn name(&self) -> &'static str;

    /// Cycles to execute the operation.
    fn nonlinear_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64;

    /// Exposed data-movement cycles for the operation (0 for devices that
    /// overlap transfers).
    fn data_movement_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64;
}

/// Executes a full trace on a device whose GEMMs run on the shared systolic
/// model and whose nonlinear ops run on `exec` — the common harness for the
/// CPU and Gemmini comparisons (Fig. 8a), which share PICACHU's systolic
/// array but differ in the nonlinear path.
pub fn execute_trace_with(
    exec: &dyn NonlinearExecutor,
    systolic: &SystolicArray,
    trace: &[TraceOp],
) -> Breakdown {
    let mut b = Breakdown::default();
    for op in trace {
        match *op {
            TraceOp::Gemm { m, k, n, count } => {
                b.gemm += (systolic.gemm_cycles(m, k, n) * count as u64) as f64;
            }
            TraceOp::Nonlinear { op, rows, channel } => {
                b.nonlinear += exec.nonlinear_cycles(op, rows, channel);
                b.data_movement += exec.data_movement_cycles(op, rows, channel);
            }
        }
    }
    b
}

/// Convenience: evaluate a model end to end at a sequence length.
pub fn evaluate_model(
    exec: &dyn NonlinearExecutor,
    systolic: &SystolicArray,
    cfg: &ModelConfig,
    seq: usize,
) -> Breakdown {
    execute_trace_with(exec, systolic, &picachu_llm::model_trace(cfg, seq))
}

/// Silicon cost of a baseline's nonlinear unit, beyond the shared
/// systolic array + SRAM it is hosted next to. First-order figures — they
/// price the energy/area columns of the comparison rows, not a paper claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitCost {
    /// Extra area of the nonlinear unit in mm² (0 for an off-chip host CPU).
    pub area_mm2: f64,
    /// Average power draw of the nonlinear unit while active, in mW.
    pub power_mw: f64,
}

/// A baseline hosted on the shared systolic array: GEMMs run on the same
/// 32×32 array PICACHU uses (same cycles, same SRAM energy), nonlinear ops
/// run on the wrapped [`NonlinearExecutor`] cost model. This is the adapter
/// that puts CPU / Gemmini / Tandem / the homogeneous CGRA behind the
/// unified [`Accelerator`] contract.
#[derive(Debug, Clone)]
pub struct Hosted<M: NonlinearExecutor> {
    /// The nonlinear-path cost model.
    pub model: M,
    /// The shared GEMM substrate (32×32 by default, as in the paper).
    pub systolic: SystolicArray,
    cost: CostModel,
    unit: UnitCost,
}

/// Total SRAM around the shared systolic array in KB (input/weight/output
/// SRAMs + the 40 KB staging buffer) — Table 7's 265 KB memory system, which
/// every hosted baseline is charged identically for apples-to-apples energy.
const HOSTED_SRAM_KB: f64 = 265.0;

impl<M: NonlinearExecutor> Hosted<M> {
    /// Hosts `model` next to a 32×32 systolic array with `unit`'s silicon
    /// cost for the nonlinear path.
    pub fn new(model: M, unit: UnitCost) -> Hosted<M> {
        Hosted { model, systolic: SystolicArray::new(32, 32), cost: CostModel::default(), unit }
    }
}

impl<M: NonlinearExecutor> Accelerator for Hosted<M> {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn execute_trace(&mut self, trace: &[TraceOp]) -> ExecutionReport {
        self.report(execute_trace_with(&self.model, &self.systolic, trace))
    }

    /// Exact: the hosted cost models are pure functions of the trace, so
    /// the capacity hint is the measurement itself, re-evaluated read-only.
    fn estimate_trace(&self, trace: &[TraceOp]) -> f64 {
        execute_trace_with(&self.model, &self.systolic, trace).total()
    }

    /// Same power-×-time shape as the PICACHU accountant: systolic + SRAM
    /// power over GEMM time, the nonlinear unit + a 30% SRAM share over
    /// nonlinear time, DMA/glue + a 20% SRAM share over exposed data
    /// movement (the hosted baselines are never faulted, so `overhead` is
    /// priced at the data-movement rate for completeness).
    fn energy_nj(&self, b: &Breakdown) -> f64 {
        let sys = self.cost.systolic_cost(self.systolic.rows, self.systolic.cols, 0.8);
        let sram = self.cost.sram_cost(HOSTED_SRAM_KB);
        let glue = self.cost.glue_cost();
        self.cost.energy_nj(sys.power_mw + sram.power_mw, b.gemm as u64)
            + self.cost.energy_nj(self.unit.power_mw + sram.power_mw * 0.3, b.nonlinear as u64)
            + self
                .cost
                .energy_nj(glue.power_mw + sram.power_mw * 0.2, (b.data_movement + b.overhead) as u64)
    }

    fn area_mm2(&self) -> f64 {
        let sys = self.cost.systolic_cost(self.systolic.rows, self.systolic.cols, 0.8);
        let sram = self.cost.sram_cost(HOSTED_SRAM_KB);
        let glue = self.cost.glue_cost();
        sys.area_mm2 + sram.area_mm2 + glue.area_mm2 + self.unit.area_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuModel;

    #[test]
    fn breakdown_accounting() {
        let b = Breakdown { gemm: 60.0, nonlinear: 30.0, data_movement: 10.0, overhead: 0.0 };
        assert_eq!(b.total(), 100.0);
        assert!((b.nonlinear_share() - 0.3).abs() < 1e-12);
        let s = b.add(b);
        assert_eq!(s.total(), 200.0);
    }

    #[test]
    fn empty_breakdown_safe() {
        let b = Breakdown::default();
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.nonlinear_share(), 0.0);
    }

    #[test]
    fn hosted_matches_legacy_evaluator_bit_for_bit() {
        // The Accelerator adapter must be pure plumbing: the breakdown it
        // reports is exactly what the historical `evaluate_model` computed.
        let cfg = ModelConfig::gpt2();
        let legacy = evaluate_model(&CpuModel::default(), &SystolicArray::new(32, 32), &cfg, 128);
        let mut hosted = CpuModel::hosted();
        let r = hosted.execute_model(&cfg, 128);
        assert_eq!(r.breakdown, legacy);
        assert_eq!(r.backend, "CPU");
        assert!(r.energy_nj > 0.0 && hosted.area_mm2() > 0.0);
    }
}
