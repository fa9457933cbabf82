//! # picachu-baselines — the comparison systems of §5.4
//!
//! Every baseline executes the same [`picachu_llm::trace`] operator traces
//! behind the unified [`picachu_backend::Accelerator`] contract, so
//! end-to-end comparisons differ only in how each device handles GEMMs and
//! nonlinear operations:
//!
//! * [`cpu`] — the host-CPU fallback (systolic array for GEMM, SIMD CPU for
//!   every nonlinear op, DRAM round trips without streaming overlap);
//! * [`gpu`] — an A100-class roofline model (FP16 tensor-core peak vs HBM
//!   bandwidth, per-kernel launch overhead) behind Figs. 1, 8b and 9;
//! * [`gemmini`] — a Gemmini-class accelerator: dedicated pipelined units
//!   for ReLU/GeLU/Softmax/LayerNorm, RISC-V scalar fallback for everything
//!   else (SwiGLU, RMSNorm, RoPE), no streaming/double-buffering;
//! * [`tandem`] — a Tandem-class tightly-coupled vector processor covering
//!   all nonlinear ops at vector rate (its accuracy cost is what Table 2
//!   measures);
//! * [`homogeneous`] — a conventional scalar 4×4 CGRA (the Fig. 7a
//!   baseline): real modulo-scheduled mappings, but no heterogeneous FUs,
//!   fusion, unrolling or streaming;
//! * [`common`] — the shared systolic-hosted harness ([`common::Hosted`])
//!   that lifts the per-device cost models onto the backend contract. The
//!   latency [`Breakdown`] itself is canonical in `picachu-backend` and
//!   only re-exported here.

pub mod common;
pub mod cpu;
pub mod gemmini;
pub mod gpu;
pub mod homogeneous;
pub mod tandem;

pub use common::{Breakdown, Hosted, NonlinearExecutor, UnitCost};
pub use cpu::CpuModel;
pub use gemmini::GemminiModel;
pub use gpu::GpuModel;
pub use homogeneous::HomogeneousCgraModel;
pub use picachu_backend::{Accelerator, ExecutionReport};
pub use tandem::TandemModel;
