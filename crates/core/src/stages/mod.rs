//! The staged execution pipeline behind [`crate::engine::PicachuEngine`].
//!
//! The engine used to be one monolith; it is now three stages with explicit
//! hand-offs, each independently testable:
//!
//! 1. [`compile`] — [`CompileService`]: kernel → CGRA mappings, through the
//!    engine's compile cache and (under faults) the DESIGN §7 degradation
//!    ladder. Output: [`CompiledLoop`]s per operation.
//! 2. [`dispatch`] — [`Dispatcher`]: walks an operator trace, applies the
//!    §4.2.4 dataflow cases (streaming overlap, channel-wise double
//!    buffering, buffer residency) and, in the same walk, prices the fault
//!    plan's ECC re-fetches and DMA stalls. Output: exact integer
//!    [`PhaseTotals`] per phase.
//! 3. [`account`] — [`Accountant`]: rolls phase totals into energy (nJ) and
//!    silicon area (mm²) under the Table 7 cost model.
//!
//! The phase-sum invariant (DESIGN §8): the [`PhaseTotals`] the dispatcher
//! hands the accountant convert to exactly the `Breakdown` the monolithic
//! engine produced — the split is observable only through cleaner seams.

pub mod account;
pub mod compile;
pub mod dispatch;

pub use account::Accountant;
pub use compile::{kernel_for, CompileService, CompiledLoop, DegradedCompile, FallbackLevel};
pub use dispatch::{Dispatcher, PhaseTotals, ECC_MAX_DETECTED};
