//! Host-CPU nonlinear execution (the Fig. 8a "CPU" baseline).
//!
//! The paper's CPU configuration keeps GEMMs on the systolic array and runs
//! every nonlinear operation on an i7-class CPU. We model a SIMD core: each
//! operation has an amortized cycles-per-element cost (vector math library
//! rates), and every tensor made by the accelerator must cross to host
//! memory and back without streaming overlap — the data-movement penalty the
//! paper calls out.

use crate::common::{Hosted, NonlinearExecutor, UnitCost};
use picachu_nonlinear::NonlinearOp;

/// SIMD-CPU cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Host link bandwidth in bytes per accelerator cycle (PCIe-class).
    pub link_bytes_per_cycle: f64,
    /// Element width in bytes (FP16 tensors).
    pub elem_bytes: f64,
}

impl Default for CpuModel {
    fn default() -> CpuModel {
        CpuModel { link_bytes_per_cycle: 16.0, elem_bytes: 2.0 }
    }
}

impl CpuModel {
    /// The CPU configuration behind the unified [`Accelerator`]
    /// (`picachu_backend::Accelerator`) contract: GEMMs on the shared
    /// systolic array, nonlinear ops on the host CPU. The host core is
    /// off-package silicon, so it contributes no accelerator area; its
    /// active power is an i7-class core running vector math (~15 W).
    pub fn hosted() -> Hosted<CpuModel> {
        Hosted::new(
            CpuModel::default(),
            UnitCost { area_mm2: 0.0, power_mw: 15_000.0 },
        )
    }

    /// Amortized cycles per element for one operation on a SIMD core
    /// (AVX2-class vector math: exp ≈ 6 cyc/elem, cheap compares ≈ 0.6).
    pub fn cycles_per_element(op: NonlinearOp) -> f64 {
        match op {
            NonlinearOp::Relu => 0.6,
            NonlinearOp::Softmax => 6.0,
            NonlinearOp::Gelu | NonlinearOp::Geglu => 8.0,
            NonlinearOp::Silu | NonlinearOp::Swiglu => 7.0,
            NonlinearOp::LayerNorm => 3.0,
            NonlinearOp::RmsNorm => 2.5,
            NonlinearOp::Rope => 10.0,
        }
    }
}

impl NonlinearExecutor for CpuModel {
    fn name(&self) -> &'static str {
        "CPU"
    }

    fn nonlinear_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64 {
        (rows * channel) as f64 * CpuModel::cycles_per_element(op)
    }

    fn data_movement_cycles(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64 {
        // tensor out to host and result back, no overlap
        let tensors = op.input_arity() + 1;
        (rows * channel) as f64 * self.elem_bytes * tensors as f64 / self.link_bytes_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_backend::Accelerator;
    use picachu_llm::ModelConfig;

    #[test]
    fn exp_ops_cost_more_than_relu() {
        let cpu = CpuModel::default();
        let relu = cpu.nonlinear_cycles(NonlinearOp::Relu, 10, 100);
        let gelu = cpu.nonlinear_cycles(NonlinearOp::Gelu, 10, 100);
        assert!(gelu > 10.0 * relu);
    }

    #[test]
    fn gated_ops_move_more_data() {
        let cpu = CpuModel::default();
        let single = cpu.data_movement_cycles(NonlinearOp::Gelu, 10, 100);
        let gated = cpu.data_movement_cycles(NonlinearOp::Swiglu, 10, 100);
        assert!(gated > single);
    }

    #[test]
    fn nonlinear_dominates_cpu_time_at_long_seq() {
        // the Fig. 1/8a premise: with GEMMs accelerated, CPU-side nonlinear
        // work is a comparable or larger share of the runtime.
        let b = CpuModel::hosted().execute_model(&ModelConfig::llama2_7b(), 1024).breakdown;
        let nl_share = (b.nonlinear + b.data_movement) / b.total();
        assert!(nl_share > 0.4, "share {nl_share}");
    }
}
