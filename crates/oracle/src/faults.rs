//! Fault-injection oracle: degraded mappings must keep exact accounting.
//!
//! The sweep walks a deterministic list of [`FaultPlan`]s — every single
//! dead PE, every single dead NoC link, then seeded multi-fault scenarios —
//! and for each (plan, op) case drives the engine's degradation ladder
//! ([`PicachuEngine::compile_op_degraded`]) and replays every compiled loop
//! on the cycle-level simulator under the same plan. The invariants are the
//! PR-3 timing identities, unchanged: a degraded mapping is a *worse*
//! mapping, never a *differently accounted* one —
//!
//! * `cycles(k) = schedule_len + (k−1)·II` exactly, dead resources or not;
//! * NoC hops equal the alive-fabric (detoured) hop sum × iterations;
//! * busy slots and buffer accesses count `nodes × k` / `memory nodes × k`;
//! * ECC overhead obeys `corrected·scrub + detected·detect` and never leaks
//!   into the pipeline cycle count;
//! * directed single-fault plans (the acceptance bar) must compile; seeded
//!   pile-ups may be rejected, but only with a typed error — a panic
//!   anywhere is itself a discrepancy.
//!
//! Numerics are deliberately absent: kernel semantics are fabric-independent
//! (the interpreter never sees tiles), so the differential oracle's numeric
//! gates already cover every fault scenario.
//!
//! Cases are linearized deterministically; `PICACHU_FAULT_REPLAY=<case>`
//! re-runs exactly one, mirroring `PICACHU_ORACLE_REPLAY`.

use crate::report::{CaseCtx, OracleReport};
use picachu::engine::{EngineConfig, FallbackLevel, PicachuEngine};
use picachu::faults::FaultPlan;
use picachu::PicachuError;
use picachu_cgra::{CgraConfig, CgraSimulator};
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::ResourceMask;
use picachu_nonlinear::NonlinearOp;
use picachu_num::DataFormat;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The fault-sweep grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSweepConfig {
    /// Operations under test.
    pub ops: Vec<NonlinearOp>,
    /// CGRA geometry the plans target.
    pub geometry: (usize, usize),
    /// Dead-PE indices, one single-fault plan each.
    pub dead_tiles: Vec<usize>,
    /// Dead-link pairs, one single-fault plan each.
    pub dead_links: Vec<(usize, usize)>,
    /// Seeds for [`FaultPlan::seeded`] multi-fault scenarios.
    pub seeded: Vec<u64>,
    /// Steady-state iterations for the identity checks.
    pub iters: u64,
    /// Engine seed.
    pub seed: u64,
    /// Taylor terms for the exp/sin chains.
    pub taylor_terms: usize,
    /// Unroll factors the engine may try.
    pub unroll_candidates: Vec<usize>,
}

impl FaultSweepConfig {
    /// The full grid on the paper's 4×4 fabric: all 16 single-dead-PE plans,
    /// all 24 single-dead-link plans, and 8 seeded pile-ups.
    pub fn full() -> FaultSweepConfig {
        let (rows, cols) = (4usize, 4usize);
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let t = r * cols + c;
                if c + 1 < cols {
                    links.push((t, t + 1));
                }
                if r + 1 < rows {
                    links.push((t, t + cols));
                }
            }
        }
        FaultSweepConfig {
            ops: NonlinearOp::ALL.to_vec(),
            geometry: (rows, cols),
            dead_tiles: (0..rows * cols).collect(),
            dead_links: links,
            seeded: (1..=8).collect(),
            iters: 64,
            seed: 0x71CA,
            taylor_terms: 8,
            unroll_candidates: vec![1, 2, 4, 8],
        }
    }

    /// Small fixed grid for the verify-script smoke gate: corner, center and
    /// edge PEs, two links, two seeded plans, four representative ops (one
    /// per kernel family: multi-loop reduction, Taylor chain, two-pass
    /// normalization, trigonometric).
    pub fn smoke() -> FaultSweepConfig {
        FaultSweepConfig {
            ops: vec![
                NonlinearOp::Softmax,
                NonlinearOp::Gelu,
                NonlinearOp::LayerNorm,
                NonlinearOp::Rope,
            ],
            geometry: (4, 4),
            dead_tiles: vec![0, 5, 15],
            dead_links: vec![(1, 2), (9, 13)],
            seeded: vec![1, 2],
            iters: 64,
            seed: 0x71CA,
            taylor_terms: 8,
            unroll_candidates: vec![1, 2, 4, 8],
        }
    }

    /// The deterministic plan list: single dead PEs, single dead links, then
    /// seeded scenarios. `(plan, directed)` — directed plans must compile,
    /// seeded ones may gracefully reject.
    pub fn plans(&self) -> Vec<(FaultPlan, bool)> {
        let mut out = Vec::new();
        for &t in &self.dead_tiles {
            out.push((FaultPlan::dead_tile(t), true));
        }
        for &(a, b) in &self.dead_links {
            out.push((FaultPlan::dead_link(a, b), true));
        }
        for &s in &self.seeded {
            out.push((FaultPlan::seeded(self.seed ^ s, self.geometry.0, self.geometry.1), false));
        }
        out
    }

    /// Total number of cases the grid linearizes to.
    pub fn case_count(&self) -> usize {
        (self.dead_tiles.len() + self.dead_links.len() + self.seeded.len()) * self.ops.len()
    }
}

/// Runs the fault sweep. `replay = Some(index)` restricts it to one case,
/// bit-identical to that case inside the full run; the fault test takes the
/// index from `PICACHU_FAULT_REPLAY=<index>`.
pub fn run_fault_sweep(cfg: &FaultSweepConfig, replay: Option<usize>) -> OracleReport {
    let mut report = OracleReport::default();
    let mut engine = PicachuEngine::new(EngineConfig {
        cgra_rows: cfg.geometry.0,
        cgra_cols: cfg.geometry.1,
        taylor_terms: cfg.taylor_terms,
        unroll_candidates: cfg.unroll_candidates.clone(),
        seed: cfg.seed,
        ..EngineConfig::default()
    });
    let mut index = 0usize;
    for (plan, directed) in cfg.plans() {
        for &op in &cfg.ops {
            let ctx = CaseCtx {
                index,
                op,
                rows: cfg.iters as usize,
                channel: 0,
                format: DataFormat::Fp16,
                cgra: cfg.geometry,
                seed: plan.seed,
            };
            index += 1;
            if replay.is_some_and(|r| r != ctx.index) {
                continue;
            }
            check_case(&mut report, ctx, &mut engine, &plan, directed, cfg.iters);
            report.cases += 1;
        }
    }
    report
}

/// Drives one (plan, op) case and records every violated identity.
fn check_case(
    report: &mut OracleReport,
    ctx: CaseCtx,
    engine: &mut PicachuEngine,
    plan: &FaultPlan,
    directed: bool,
    iters: u64,
) {
    let label = plan.to_string();
    // the ladder measures II inflation against the healthy compile; a
    // healthy failure would silently default it to 1.0, so flag it here
    if let Err(e) = engine.try_compile_op(ctx.op) {
        report.check_exact("fault", ctx, &label, format!("healthy-compile: {e}"), 0, 1);
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| engine.compile_op_degraded(ctx.op, plan)));
    let dc = match outcome {
        Ok(Ok(dc)) => dc,
        Ok(Err(e)) => {
            // graceful typed rejection: allowed for seeded pile-ups, a
            // violation of the acceptance bar for directed single faults
            report.checks += 1;
            if directed {
                report.check_exact("fault", ctx, &label, format!("rejected: {e}"), 0, 1);
            } else if !matches!(e, PicachuError::Compile { .. }) {
                report.check_exact("fault", ctx, &label, format!("wrong-error-class: {e}"), 0, 1);
            }
            return;
        }
        Err(_) => {
            report.check_exact("fault", ctx, &label, "compile panicked", 0, 1);
            return;
        }
    };
    report.check_exact(
        "fault",
        ctx,
        &label,
        "ii_inflation finite+positive",
        1,
        (dc.ii_inflation.is_finite() && dc.ii_inflation > 0.0) as u64,
    );
    // the fabric the loops actually run on
    let spec = match dc.fallback {
        FallbackLevel::Universal => CgraSpec::universal(ctx.cgra.0, ctx.cgra.1),
        _ => engine.spec().clone(),
    };
    let mask = ResourceMask::degraded(
        &spec,
        plan.dead_tiles.iter().copied(),
        plan.dead_links.iter().copied(),
    );
    for (idx, l) in dc.loops.iter().enumerate() {
        let dfg = engine.lowered_dfg(ctx.op, idx, l.uf, l.vf);
        let cfg = CgraConfig::from_mapping(&dfg, &l.mapping, &spec);
        let sim = CgraSimulator::new(&spec, &dfg, &cfg);
        let m = &l.mapping;

        let run = |report: &mut OracleReport, k: u64| match sim.run_faulted(k, plan) {
            Ok(r) => Some(r),
            Err(e) => {
                report.check_exact(
                    "fault",
                    ctx,
                    &l.label,
                    format!("sim-fault(iters={k}): {e}"),
                    0,
                    1,
                );
                None
            }
        };

        let r1 = run(report, 1);
        if let Some(r1) = &r1 {
            report.check_exact(
                "fault", ctx, &l.label, "prologue:cycles(iters=1)",
                m.schedule_len as u64, r1.report.cycles,
            );
        }
        if let (Some(r1), Some(r2)) = (&r1, run(report, 2)) {
            report.check_exact(
                "fault", ctx, &l.label, "derived-II:cycles(2)-cycles(1)",
                m.ii as u64, r2.report.cycles - r1.report.cycles,
            );
        }
        if let Some(rn) = run(report, iters) {
            report.check_exact(
                "fault", ctx, &l.label, format!("cycles(iters={iters})"),
                m.cycles_for(iters), rn.report.cycles,
            );
            report.check_exact(
                "fault", ctx, &l.label, "tile_busy_total",
                dfg.len() as u64 * iters, rn.report.tile_busy.iter().sum(),
            );
            let mem_nodes = dfg.nodes().iter().filter(|n| n.op.is_memory()).count() as u64;
            report.check_exact(
                "fault", ctx, &l.label, "buffer_accesses",
                mem_nodes * iters, rn.report.buffer_accesses,
            );
            // NoC hops over the *alive* fabric: detours count, dead links
            // never traversed
            let hops_per_iter: Option<u64> = dfg
                .nodes()
                .iter()
                .map(|n| {
                    let dst = m.placements[n.id.0].tile;
                    n.inputs
                        .iter()
                        .map(|e| {
                            mask.hops(m.placements[e.from.0].tile, dst).map(u64::from)
                        })
                        .sum::<Option<u64>>()
                })
                .sum();
            match hops_per_iter {
                Some(h) => report.check_exact(
                    "fault", ctx, &l.label, "noc_hops(alive fabric)",
                    h * iters, rn.report.noc_hops,
                ),
                None => report.check_exact(
                    "fault", ctx, &l.label, "mapping routes over dead resources", 0, 1,
                ),
            }
            // ECC identity: overhead decomposes exactly, and never leaks
            // into the pipeline cycle count (checked above)
            report.check_exact(
                "fault", ctx, &l.label, "ecc overhead decomposition",
                rn.ecc.corrected * plan.ecc.scrub_cycles + rn.ecc.detected * plan.ecc.detect_cycles,
                rn.ecc.overhead_cycles,
            );
            // dead tiles must be idle
            for &t in &plan.dead_tiles {
                if t < rn.report.tile_busy.len() {
                    report.check_exact(
                        "fault", ctx, &l.label, format!("dead tile {t} busy"),
                        0, rn.report.tile_busy[t],
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_covers_every_single_fault() {
        let cfg = FaultSweepConfig::full();
        assert_eq!(cfg.dead_tiles.len(), 16);
        assert_eq!(cfg.dead_links.len(), 24, "4x4 mesh has 24 links");
        assert!(cfg.case_count() >= (16 + 24) * NonlinearOp::ALL.len());
    }

    #[test]
    fn smoke_grid_is_small_and_directed_first() {
        let cfg = FaultSweepConfig::smoke();
        assert!(cfg.case_count() <= 40, "{}", cfg.case_count());
        let plans = cfg.plans();
        assert!(plans[0].1, "directed plans lead the order");
        assert!(!plans.last().map(|p| p.1).unwrap_or(true), "seeded plans close it");
    }

    #[test]
    fn plan_list_is_deterministic() {
        let cfg = FaultSweepConfig::full();
        assert_eq!(cfg.plans(), cfg.plans());
    }
}
