//! # picachu — a from-scratch reproduction of PICACHU (ASPLOS '25)
//!
//! *PICACHU: Plug-In CGRA Handling Upcoming Nonlinear Operations in LLMs.*
//!
//! PICACHU accelerates the nonlinear operations of LLM inference (softmax,
//! GeLU/SiLU and their gated forms, Layer/RMS normalization, RoPE) on a
//! heterogeneous coarse-grained reconfigurable array plugged into a
//! systolic-array accelerator through a shared buffer. This crate is the
//! façade over the full system:
//!
//! | layer | crate |
//! |---|---|
//! | numeric formats (FP16, FP2FX, LUT, dyadic quantization) | [`picachu_num`] |
//! | nonlinear algorithms (Table 3/Table 1 kernels, accuracy) | [`picachu_nonlinear`] |
//! | kernel IR + DFGs | [`picachu_ir`] |
//! | compiler (fusion, unroll, vectorize, modulo mapper) | [`picachu_compiler`] |
//! | CGRA config/simulator/cost | [`picachu_cgra`] |
//! | systolic array + shared buffer + DMA | [`picachu_systolic`] |
//! | LLM workloads + accuracy-proxy LM | [`picachu_llm`] |
//! | unified `Accelerator` backend contract | [`picachu_backend`] |
//! | comparison accelerators | [`picachu_baselines`] |
//! | compile → dispatch → account pipeline stages | [`stages`] |
//! | end-to-end engine | [`engine`] |
//! | design-space exploration | [`dse`] |
//!
//! ## Quickstart
//!
//! ```
//! use picachu::engine::{EngineConfig, PicachuEngine};
//! use picachu_llm::ModelConfig;
//!
//! let mut engine = PicachuEngine::new(EngineConfig::default());
//! let breakdown = engine.execute_model(&ModelConfig::gpt2(), 128);
//! assert!(breakdown.total() > 0.0);
//! println!("GPT-2 @128: {breakdown}");
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod compile_cache;
pub mod dse;
pub mod engine;
pub mod error;
pub mod mapstore;
pub mod stages;

pub use compile_cache::{CompileCache, CompileKey};
pub use dse::{pareto_frontier, search, DesignKnobs, DesignPoint, SearchConfig, SearchResult};
pub use engine::{
    CompiledLoop, DegradedCompile, EngineConfig, FabricKind, FallbackLevel, PicachuEngine,
    ECC_MAX_DETECTED,
};
pub use error::PicachuError;
pub use stages::{Accountant, CompileService, Dispatcher, PhaseTotals};
pub use picachu_backend::{Accelerator, Breakdown, ExecutionReport};
pub use picachu_backend as backend;
pub use picachu_faults as faults;
pub use picachu_runtime as runtime;
pub use picachu_baselines as baselines;
pub use picachu_cgra as cgra;
pub use picachu_compiler as compiler;
pub use picachu_ir as ir;
pub use picachu_llm as llm;
pub use picachu_nonlinear as nonlinear;
pub use picachu_num as num;
pub use picachu_systolic as systolic;
