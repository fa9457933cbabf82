//! # picachu-compiler — the PICACHU compilation toolchain (§4.3)
//!
//! Mirrors the paper's flow downstream of the MLIR front end:
//!
//! 1. [`frontend`] — pattern matching over a high-level tensor-op graph to
//!    recognize nonlinear operations, and the offload pass that splits work
//!    between the systolic array (GEMM) and the CGRA (nonlinear kernels);
//! 2. [`transform`] — loop transformations (unrolling, INT16 vectorization)
//!    and DFG tuning (Table 4 pattern fusion; lowering of special operations
//!    for baseline CGRAs without the dedicated functional units);
//! 3. [`mapper`] — modulo scheduling of the DFG onto the CGRA's
//!    Modulo Routing Resource Graph, minimizing the initiation interval under
//!    heterogeneous-tile, memory-port and routing constraints;
//! 4. [`arch`] — the CGRA architecture description the mapper targets
//!    (grid size, BaT/BrT/CoT tile classes, memory ports).
//!
//! ```
//! use picachu_compiler::arch::CgraSpec;
//! use picachu_compiler::mapper::map_dfg;
//! use picachu_compiler::transform::fuse_patterns;
//! use picachu_ir::kernels::relu_kernel;
//!
//! let spec = CgraSpec::picachu(4, 4);
//! let fused = fuse_patterns(&relu_kernel().loops[0].dfg);
//! let mapping = map_dfg(&fused, &spec, 0xC0FFEE).expect("relu maps");
//! assert!(mapping.ii >= 1);
//! ```

// Serve-path crate: a panic here kills a compile request, so unwrap/expect
// are banned outside test code (DESIGN.md §7).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arch;
pub mod frontend;
pub mod mapper;
pub mod transform;

pub use arch::{CgraSpec, TileClass};
pub use mapper::{
    map_dfg, map_dfg_with, pnr_report, MapError, Mapping, PnrMode, PnrReport, ResourceMask,
};
