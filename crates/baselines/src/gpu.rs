//! A100-class GPU roofline model (Figs. 1, 8b, 9).
//!
//! **Substitution note (DESIGN.md §1):** the paper profiles real models on an
//! A100. We model the same first-order physics: GEMMs run at a fraction of
//! the 312 TFLOP/s FP16 tensor-core peak; nonlinear operations are
//! memory-bound element-wise kernels limited by achieved HBM bandwidth,
//! executed as separate (unfused) kernels with per-launch overhead and
//! multiple passes over the data — which is why their share of runtime grows
//! with sequence length (Fig. 1).

use picachu_backend::{Accelerator, Breakdown, ExecutionReport};
use picachu_llm::trace::TraceOp;
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;

/// A100-class parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Peak FP16 tensor-core throughput in MAC/s (312 TFLOP/s = 156e12).
    pub peak_macs_per_s: f64,
    /// Achieved GEMM efficiency on transformer shapes.
    pub gemm_efficiency: f64,
    /// Peak HBM bandwidth in bytes/s.
    pub peak_bw: f64,
    /// Achieved bandwidth fraction for element-wise kernels.
    pub bw_efficiency: f64,
    /// Per-kernel launch overhead in seconds.
    pub launch_overhead_s: f64,
    /// Element width in bytes (FP16).
    pub elem_bytes: f64,
}

impl Default for GpuModel {
    fn default() -> GpuModel {
        GpuModel {
            peak_macs_per_s: 156e12,
            gemm_efficiency: 0.62,
            peak_bw: 1.555e12,
            bw_efficiency: 0.28,
            launch_overhead_s: 8e-6,
            elem_bytes: 2.0,
        }
    }
}

impl GpuModel {
    /// Memory passes one nonlinear op makes over its tensor (unfused
    /// PyTorch-style kernels: half-precision softmax upcasts and runs
    /// max/exp/sum/divide passes; rotary embedding is a chain of
    /// slice/neg/cat/mul/add kernels; gated activations are three unfused
    /// kernels; norms compute statistics first).
    pub fn passes(op: NonlinearOp) -> f64 {
        match op {
            NonlinearOp::Softmax => 5.0,
            NonlinearOp::LayerNorm => 4.0,
            NonlinearOp::RmsNorm => 8.0,
            NonlinearOp::Relu => 2.0,
            NonlinearOp::Gelu | NonlinearOp::Silu => 2.0,
            NonlinearOp::Geglu | NonlinearOp::Swiglu => 6.0,
            NonlinearOp::Rope => 14.0,
        }
    }

    /// Shape-dependent tensor-core efficiency: large square GEMMs approach
    /// `gemm_efficiency`; small contraction dims (per-head attention GEMMs)
    /// and narrow matrices fall well below it, as measured on real GPUs.
    pub fn shape_efficiency(&self, m: usize, k: usize, n: usize) -> f64 {
        let work = (k as f64) * (m.min(n) as f64);
        let s = (work / 8.4e6).powf(0.3).clamp(0.2, 1.0);
        self.gemm_efficiency * s
    }

    /// Seconds for one GEMM.
    pub fn gemm_seconds(&self, m: usize, k: usize, n: usize, count: usize) -> f64 {
        let macs = (m * k * n * count) as f64;
        macs / (self.peak_macs_per_s * self.shape_efficiency(m, k, n)) + self.launch_overhead_s
    }

    /// Seconds for one nonlinear operation over `rows × channel` elements.
    pub fn nonlinear_seconds(&self, op: NonlinearOp, rows: usize, channel: usize) -> f64 {
        let bytes = (rows * channel) as f64 * self.elem_bytes * GpuModel::passes(op);
        bytes / (self.peak_bw * self.bw_efficiency) + self.launch_overhead_s
    }

    /// Executes a trace, returning `(gemm_seconds, nonlinear_seconds)`.
    pub fn execute_trace(&self, trace: &[TraceOp]) -> (f64, f64) {
        let mut g = 0.0;
        let mut nl = 0.0;
        for op in trace {
            match *op {
                TraceOp::Gemm { m, k, n, count } => g += self.gemm_seconds(m, k, n, count),
                TraceOp::Nonlinear { op, rows, channel } => {
                    nl += self.nonlinear_seconds(op, rows, channel)
                }
            }
        }
        (g, nl)
    }

    /// Fig. 1 style: fraction of model runtime spent in nonlinear ops.
    pub fn nonlinear_share(&self, cfg: &ModelConfig, seq: usize) -> f64 {
        let (g, nl) = self.execute_trace(&picachu_llm::model_trace(cfg, seq));
        nl / (g + nl)
    }

    /// Energy model: seconds × average board power (W) → joules.
    /// 400 W TDP, derated by a compute-intensity-dependent activity factor.
    pub fn energy_j(&self, gemm_s: f64, nonlinear_s: f64) -> f64 {
        // GEMM phases run near TDP; memory-bound phases draw less.
        gemm_s * 330.0 + nonlinear_s * 180.0
    }
}

impl Accelerator for GpuModel {
    fn name(&self) -> &str {
        "A100"
    }

    /// The roofline model is wall-clock, so the breakdown is reported in
    /// **nanoseconds** — numerically comparable with the 1 GHz backends'
    /// cycle counts (see the `picachu-backend` unit note).
    fn execute_trace(&mut self, trace: &[TraceOp]) -> ExecutionReport {
        let (g, n) = GpuModel::execute_trace(self, trace);
        self.report(Breakdown {
            gemm: g * 1e9,
            nonlinear: n * 1e9,
            ..Breakdown::default()
        })
    }

    fn energy_nj(&self, b: &Breakdown) -> f64 {
        // breakdown is in ns; energy_j takes seconds and returns joules
        self.energy_j(b.gemm * 1e-9, (b.nonlinear + b.data_movement + b.overhead) * 1e-9) * 1e9
    }

    /// A100 die area (GA100, 7 nm).
    fn area_mm2(&self) -> f64 {
        826.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonlinear_share_grows_with_sequence_length() {
        // Fig. 1b: longer sequences push the nonlinear share up.
        let gpu = GpuModel::default();
        let cfg = ModelConfig::llama2_7b();
        let s128 = gpu.nonlinear_share(&cfg, 128);
        let s1024 = gpu.nonlinear_share(&cfg, 1024);
        let s2048 = gpu.nonlinear_share(&cfg, 2048);
        assert!(s128 < s1024 && s1024 < s2048, "{s128} {s1024} {s2048}");
    }

    #[test]
    fn nonlinear_share_significant_at_1024() {
        // Fig. 1a: up to ~46% at seq 1024 across the model set.
        let gpu = GpuModel::default();
        let mut max_share: f64 = 0.0;
        for cfg in ModelConfig::evaluation_set() {
            max_share = max_share.max(gpu.nonlinear_share(&cfg, 1024));
        }
        assert!((0.30..0.60).contains(&max_share), "max share {max_share}");
    }

    #[test]
    fn gemm_bound_by_peak() {
        let gpu = GpuModel::default();
        let t = gpu.gemm_seconds(4096, 4096, 4096, 1);
        let ideal = (4096u64.pow(3)) as f64 / gpu.peak_macs_per_s;
        assert!(t > ideal, "cannot beat peak");
        assert!(t < ideal * 4.0, "within efficiency envelope");
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let gpu = GpuModel::default();
        let t = gpu.nonlinear_seconds(NonlinearOp::Relu, 1, 64);
        assert!(t > 0.9 * gpu.launch_overhead_s);
        assert!(t < 2.0 * gpu.launch_overhead_s);
    }

    #[test]
    fn energy_positive_and_ordered() {
        let gpu = GpuModel::default();
        assert!(gpu.energy_j(1.0, 0.0) > gpu.energy_j(0.0, 1.0), "GEMM phases draw more");
    }
}
