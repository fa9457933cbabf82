//! # picachu-backend — the unified accelerator contract
//!
//! The paper's headline claims (Figs. 7–9, Table 7) are *comparative*:
//! PICACHU against a CPU configuration, an A100-class GPU, a Gemmini-class
//! accelerator, a Tandem-class vector processor and a conventional
//! homogeneous CGRA. Apples-to-apples comparison lives or dies on a shared
//! harness contract, so this crate defines the one interface every
//! comparison target implements:
//!
//! * [`Accelerator`] — the backend trait: execute an operator trace, report
//!   energy and silicon area;
//! * [`Breakdown`] — the canonical per-phase latency decomposition (matmul,
//!   nonlinear, data movement, DMA/ECC fault overhead), the *only* such type
//!   in the workspace;
//! * [`ExecutionReport`] — a breakdown plus its energy, stamped with the
//!   backend's name: the row type the shared bench harness consumes.
//!
//! The crate sits between the device models (`picachu`'s engine, the
//! `picachu-baselines` cost models) and the experiment harness
//! (`picachu-bench`): adding a seventh backend or a batched serving
//! front-end is a one-crate change against this contract.
//!
//! ## Units
//!
//! Backends clocked at the paper's 1 GHz report **cycles**, which at 1 GHz
//! are numerically nanoseconds; wall-clock models (the A100 roofline)
//! report **nanoseconds** directly. Totals from different backends are
//! therefore directly comparable, which is what lets one harness drive
//! every figure.

use picachu_llm::trace::TraceOp;
use picachu_llm::ModelConfig;
use std::fmt;

/// End-to-end latency decomposition (the quantity behind Figs. 1, 8, 9b).
///
/// This is the canonical breakdown shared by every [`Accelerator`]: the
/// engine's analytical accounting, the baseline cost models and the bench
/// harness all speak this type. Components are `f64` because wall-clock
/// backends produce fractional nanoseconds; cycle-accurate backends
/// accumulate in `u64` internally (see `picachu`'s `PhaseTotals`) and
/// convert once at the boundary, so integer cycle counts below 2⁵³ survive
/// the conversion exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Cycles (or ns) spent in GEMMs on the matmul substrate.
    pub gemm: f64,
    /// Cycles spent in nonlinear operations.
    pub nonlinear: f64,
    /// Exposed (un-overlapped) data-movement cycles.
    pub data_movement: f64,
    /// Fault-handling overhead: ECC scrubs/re-fetches and DMA stall
    /// retries. Zero on a healthy device — kept out of `data_movement` so
    /// the healthy-accounting identities (differential oracle, DESIGN §6)
    /// hold bit-identically whether or not a fault plan is active.
    pub overhead: f64,
}

impl Breakdown {
    /// Total latency across all four phases.
    pub fn total(&self) -> f64 {
        self.gemm + self.nonlinear + self.data_movement + self.overhead
    }

    /// Fraction of total time in nonlinear operations.
    pub fn nonlinear_share(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.nonlinear / self.total()
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: Breakdown) -> Breakdown {
        Breakdown {
            gemm: self.gemm + other.gemm,
            nonlinear: self.nonlinear + other.nonlinear,
            data_movement: self.data_movement + other.data_movement,
            overhead: self.overhead + other.overhead,
        }
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {:.3e} (gemm {:.1}%, nonlinear {:.1}%, data {:.1}%, fault {:.1}%)",
            self.total(),
            100.0 * self.gemm / self.total().max(1e-12),
            100.0 * self.nonlinear / self.total().max(1e-12),
            100.0 * self.data_movement / self.total().max(1e-12),
            100.0 * self.overhead / self.total().max(1e-12),
        )
    }
}

/// The result of executing one trace on one backend: the canonical
/// breakdown plus its energy, stamped with the backend's name. One report
/// is one row of the shared comparison harness.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The backend that produced the report ([`Accelerator::name`]).
    pub backend: String,
    /// Per-phase latency.
    pub breakdown: Breakdown,
    /// Energy for the breakdown in nanojoules.
    pub energy_nj: f64,
}

impl ExecutionReport {
    /// Total latency (cycles or ns — see the crate-level unit note).
    pub fn total(&self) -> f64 {
        self.breakdown.total()
    }

    /// Whether every component is finite and non-negative — the first
    /// thing the backend-parity suite asserts about every backend.
    pub fn is_sane(&self) -> bool {
        let b = &self.breakdown;
        [b.gemm, b.nonlinear, b.data_movement, b.overhead, self.energy_nj]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} | {:.3e} nJ", self.backend, self.breakdown, self.energy_nj)
    }
}

/// Relative tolerance within which the backend-parity suite holds a *warm*
/// [`Accelerator::estimate_trace`] to the measured
/// `execute_trace(..).total()` of the same trace. Estimates are pure
/// re-evaluations of the same cost models, so agreement is essentially
/// exact; the epsilon only absorbs f64 summation-order noise.
pub const HINT_WARM_TOLERANCE: f64 = 1e-9;

/// A device that can execute full operator traces — the unified contract
/// between the compilation/modeling layers and the experiment harness.
///
/// Implementors: `PicachuEngine` (the plug-in CGRA system), the four
/// `picachu-baselines` cost models hosted on the shared systolic array
/// (CPU, Gemmini, Tandem, homogeneous CGRA), and the A100 roofline model.
///
/// `execute_trace` takes `&mut self` because compiled backends populate
/// kernel caches while executing; analytical models simply ignore the
/// mutability.
pub trait Accelerator {
    /// Backend name for tables, figures and JSON rows.
    fn name(&self) -> &str;

    /// Executes a full operator trace, returning the per-phase report.
    fn execute_trace(&mut self, trace: &[TraceOp]) -> ExecutionReport;

    /// Cheap, read-only estimate of `execute_trace(trace).total()` in the
    /// backend's reporting unit (cycles at 1 GHz ≡ ns, wall-ns for the
    /// GPU), without mutating backend state. Every device prices it with
    /// its own cost model; there is no default.
    ///
    /// Contract (enforced for all six devices by `tests/backends.rs`):
    /// once the backend's kernel caches are warm — after one
    /// `execute_trace` over the same operations — the estimate agrees
    /// with the measured total to within [`HINT_WARM_TOLERANCE`] relative
    /// error. A cold estimate may be cruder (PICACHU has not mapped its
    /// kernels yet) but must stay within a documented constant factor.
    fn estimate_trace(&self, trace: &[TraceOp]) -> f64;

    /// Energy in nanojoules for a breakdown this backend produced.
    fn energy_nj(&self, b: &Breakdown) -> f64;

    /// Silicon area of the backend in mm² (die area for the GPU).
    fn area_mm2(&self) -> f64;

    /// Convenience: evaluate a model end to end at a sequence length
    /// (prefill trace).
    fn execute_model(&mut self, cfg: &ModelConfig, seq: usize) -> ExecutionReport {
        self.execute_trace(&picachu_llm::model_trace(cfg, seq))
    }

    /// Stamps a breakdown into a report under this backend's name, pricing
    /// its energy. Implementors' `execute_trace` typically ends here.
    fn report(&self, breakdown: Breakdown) -> ExecutionReport {
        ExecutionReport {
            backend: self.name().to_string(),
            energy_nj: self.energy_nj(&breakdown),
            breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accounting() {
        let b = Breakdown { gemm: 60.0, nonlinear: 30.0, data_movement: 8.0, overhead: 2.0 };
        assert_eq!(b.total(), 100.0);
        assert!((b.nonlinear_share() - 0.3).abs() < 1e-12);
        let s = b.add(b);
        assert_eq!(s.total(), 200.0);
        assert_eq!(s.overhead, 4.0);
    }

    #[test]
    fn empty_breakdown_safe() {
        let b = Breakdown::default();
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.nonlinear_share(), 0.0);
    }

    struct Fixed;
    impl Accelerator for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn execute_trace(&mut self, trace: &[TraceOp]) -> ExecutionReport {
            self.report(Breakdown { gemm: trace.len() as f64, ..Breakdown::default() })
        }
        fn estimate_trace(&self, trace: &[TraceOp]) -> f64 {
            trace.len() as f64
        }
        fn energy_nj(&self, b: &Breakdown) -> f64 {
            2.0 * b.total()
        }
        fn area_mm2(&self) -> f64 {
            1.5
        }
    }

    #[test]
    fn trait_report_prices_energy_and_stamps_name() {
        let mut d = Fixed;
        let r = d.execute_trace(&[TraceOp::Gemm { m: 1, k: 1, n: 1, count: 1 }]);
        assert_eq!(r.backend, "fixed");
        assert_eq!(r.total(), 1.0);
        assert_eq!(r.energy_nj, 2.0);
        assert!(r.is_sane());
    }

    #[test]
    fn insane_reports_detected() {
        let r = ExecutionReport {
            backend: "x".into(),
            breakdown: Breakdown { gemm: f64::NAN, ..Breakdown::default() },
            energy_nj: 0.0,
        };
        assert!(!r.is_sane());
        let r2 = ExecutionReport {
            backend: "x".into(),
            breakdown: Breakdown { nonlinear: -1.0, ..Breakdown::default() },
            energy_nj: 0.0,
        };
        assert!(!r2.is_sane());
    }
}
