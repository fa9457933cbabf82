//! Machine-readable discrepancy reporting.
//!
//! Every failed invariant becomes one [`Discrepancy`]; the report serializes
//! to JSON lines (hand-rolled — the tree carries no serialization
//! dependency) so a driver script can diff runs. Each line embeds the exact
//! environment-variable incantation that re-runs just the failing case.

use picachu_nonlinear::NonlinearOp;
use picachu_num::DataFormat;
use picachu_testkit::json::json_escape;

/// Identifies one sweep case: everything needed to rebuild the engine and
/// inputs that produced a discrepancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseCtx {
    /// Position in the sweep's linearized case order (the replay key).
    pub index: usize,
    /// Operation under test.
    pub op: NonlinearOp,
    /// Tensor rows.
    pub rows: usize,
    /// Channel (row length) in elements.
    pub channel: usize,
    /// Data format.
    pub format: DataFormat,
    /// CGRA geometry (rows, cols).
    pub cgra: (usize, usize),
    /// Engine / input seed for the case.
    pub seed: u64,
}

/// One violated invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrepancy {
    /// Which oracle found it (`"timing"` or `"numerics"`).
    pub oracle: &'static str,
    /// The case it occurred in.
    pub ctx: CaseCtx,
    /// Kernel-loop label (empty for case-level invariants).
    pub loop_label: String,
    /// The quantity that diverged (e.g. `"cycles(iters=7)"`).
    pub quantity: String,
    /// Analytical / reference value.
    pub expected: f64,
    /// Simulated / interpreted value.
    pub actual: f64,
}

impl Discrepancy {
    /// The `(env var, test binary)` pair that replays this discrepancy's
    /// case in isolation. Each oracle family has its own linearized case
    /// order, so each gets its own replay variable: the fault sweep answers
    /// to `PICACHU_FAULT_REPLAY`, everything else to
    /// `PICACHU_ORACLE_REPLAY`.
    pub fn replay_target(&self) -> (&'static str, &'static str) {
        if self.oracle == "fault" {
            ("PICACHU_FAULT_REPLAY", "faults")
        } else {
            ("PICACHU_ORACLE_REPLAY", "differential")
        }
    }

    /// One JSON object per line, replayable via the embedded command.
    pub fn to_json_line(&self) -> String {
        let (env, test) = self.replay_target();
        format!(
            concat!(
                "{{\"oracle\":\"{}\",\"case\":{},\"op\":\"{:?}\",\"loop\":\"{}\",",
                "\"quantity\":\"{}\",\"rows\":{},\"channel\":{},\"format\":\"{}\",",
                "\"cgra\":[{},{}],\"expected\":{},\"actual\":{},\"seed\":{},",
                "\"replay\":\"{}={} cargo test -p picachu-oracle --test {}\"}}"
            ),
            self.oracle,
            self.ctx.index,
            self.ctx.op,
            json_escape(&self.loop_label),
            json_escape(&self.quantity),
            self.ctx.rows,
            self.ctx.channel,
            self.ctx.format,
            self.ctx.cgra.0,
            self.ctx.cgra.1,
            self.expected,
            self.actual,
            self.ctx.seed,
            env,
            self.ctx.index,
            test,
        )
    }
}

/// Per-(op, format) numerics error summary — reported even when green, so
/// accuracy regressions show up as diffs rather than only as failures.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericsSummary {
    /// Operation.
    pub op: NonlinearOp,
    /// Data format the inputs were round-tripped through.
    pub format: DataFormat,
    /// Largest absolute error vs the f64 reference.
    pub max_abs: f64,
    /// Largest f32 ULP distance vs the reference rounded to f32.
    pub max_ulp: u64,
    /// The documented max-abs tolerance the run was held to.
    pub tolerance: f64,
}

impl NumericsSummary {
    /// JSON-line form, same stream as the discrepancies.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"oracle\":\"numerics-summary\",\"op\":\"{:?}\",\"format\":\"{}\",\"max_abs\":{:e},\"max_ulp\":{},\"tolerance\":{:e}}}",
            self.op, self.format, self.max_abs, self.max_ulp, self.tolerance
        )
    }
}

/// Everything one sweep produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    /// Cases executed (a replay run executes exactly one).
    pub cases: usize,
    /// Individual invariant checks evaluated.
    pub checks: u64,
    /// Violations, in discovery order.
    pub discrepancies: Vec<Discrepancy>,
    /// Per-(op, format) numerics error measurements.
    pub numerics: Vec<NumericsSummary>,
}

impl OracleReport {
    /// `true` when every check passed.
    pub fn is_green(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// Exact check: records a discrepancy unless `expected == actual`.
    pub fn check_exact(
        &mut self,
        oracle: &'static str,
        ctx: CaseCtx,
        loop_label: &str,
        quantity: impl Into<String>,
        expected: u64,
        actual: u64,
    ) {
        self.checks += 1;
        if expected != actual {
            self.discrepancies.push(Discrepancy {
                oracle,
                ctx,
                loop_label: loop_label.to_string(),
                quantity: quantity.into(),
                expected: expected as f64,
                actual: actual as f64,
            });
        }
    }

    /// Bounded check: records a discrepancy when
    /// `|expected − actual| > tolerance` — NaN on either side fails.
    #[allow(clippy::too_many_arguments)]
    pub fn check_bounded(
        &mut self,
        oracle: &'static str,
        ctx: CaseCtx,
        loop_label: &str,
        quantity: impl Into<String>,
        expected: f64,
        actual: f64,
        tolerance: f64,
    ) {
        self.checks += 1;
        let within = (expected - actual).abs() <= tolerance;
        if !within {
            self.discrepancies.push(Discrepancy {
                oracle,
                ctx,
                loop_label: loop_label.to_string(),
                quantity: quantity.into(),
                expected,
                actual,
            });
        }
    }

    /// Human one-liner for test logs.
    pub fn summary(&self) -> String {
        format!(
            "oracle: {} cases, {} checks, {} discrepancies",
            self.cases,
            self.checks,
            self.discrepancies.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CaseCtx {
        CaseCtx {
            index: 7,
            op: NonlinearOp::Gelu,
            rows: 4,
            channel: 64,
            format: DataFormat::Fp16,
            cgra: (4, 4),
            seed: 0x71CA,
        }
    }

    #[test]
    fn exact_check_records_mismatch() {
        let mut r = OracleReport::default();
        r.check_exact("timing", ctx(), "gelu", "cycles", 10, 10);
        assert!(r.is_green());
        r.check_exact("timing", ctx(), "gelu", "cycles", 10, 11);
        assert_eq!(r.discrepancies.len(), 1);
        assert_eq!(r.checks, 2);
    }

    #[test]
    fn bounded_check_rejects_nan() {
        let mut r = OracleReport::default();
        r.check_bounded("timing", ctx(), "", "util", 0.5, f64::NAN, 0.1);
        assert_eq!(r.discrepancies.len(), 1, "NaN must not pass a bound");
    }

    #[test]
    fn json_line_is_replayable_and_escaped() {
        let d = Discrepancy {
            oracle: "timing",
            ctx: ctx(),
            loop_label: "soft\"max".into(),
            quantity: "cycles(iters=2)".into(),
            expected: 12.0,
            actual: 13.0,
        };
        let line = d.to_json_line();
        assert!(line.contains("PICACHU_ORACLE_REPLAY=7"));
        assert!(line.contains("soft\\\"max"));
        assert!(line.contains("\"cgra\":[4,4]"));
        assert!(!line.contains('\n'));
    }
}
