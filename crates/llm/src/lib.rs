//! # picachu-llm — LLM workload models and the accuracy-proxy language model
//!
//! * [`models`] — the transformer configurations the paper evaluates
//!   (GPT2-XL, OPT-6.7B/13B, LLaMA/LLaMA2-7B/13B, BigBird, BERT) with their
//!   nonlinear-operation mix from Table 1;
//! * [`trace`] — per-layer operator traces (GEMM shapes + nonlinear ops with
//!   row/channel geometry) that the end-to-end engine and every baseline
//!   model consume;
//! * [`tinylm`] — a self-contained attention language model whose perplexity
//!   proxy re-measures under each nonlinear-approximation scheme
//!   (the Tables 2/5 substitution; see DESIGN.md §1).

pub mod models;
pub mod tinylm;
pub mod trace;

pub use models::{ActKind, ModelConfig, NormKind, PosKind};
pub use trace::{model_trace, TraceOp};
