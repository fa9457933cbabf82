//! Seeded chaos schedules: timed mid-run failure for the serving pool.
//!
//! A shard degrades when a [`FaultPlan`] lands on it, crashes *mid-batch*,
//! comes back minutes later, or spends a window refusing new work while its
//! compile service restarts. This module generates those events as data — a
//! sorted `Vec<ChaosEvent>` that is a pure function of a [`ChaosConfig`] —
//! so a chaos run is exactly as replayable as a clean one (the scheduler's
//! replay and thread-count-invariance contracts extend to chaos unchanged).
//!
//! Four actions cover the failure modes the retry/preemption machinery in
//! `sched` must survive (DESIGN.md §12):
//!
//! * [`ChaosAction::Crash`] — the shard drops out of service *now*; its
//!   in-flight batch is killed (no tokens commit) and every member enters
//!   the retry path.
//! * [`ChaosAction::Degrade`] — a [`FaultPlan`] lands at time t and
//!   replaces the shard's cost table
//!   ([`Shard::apply_fault`](crate::Shard::apply_fault): PICACHU shards
//!   re-run every cost-key trace on their degraded mappings).
//! * [`ChaosAction::Recover`] — the shard returns to full health.
//! * [`ChaosAction::CompileOutage`] — the shard finishes what it is running
//!   but starts nothing new for a window (a transient compile-service
//!   failure: placement still works from the warm cost table, dispatch
//!   does not).

use picachu_faults::FaultPlan;
use picachu_testkit::TestRng;

/// What a chaos event does to its shard.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Immediate out-of-service: the in-flight batch dies with no tokens
    /// committed and its members are retried on surviving shards.
    Crash,
    /// Apply a fault plan at event time: the shard's cost table becomes the
    /// plan's, queued work re-places, in-flight work drains.
    Degrade(FaultPlan),
    /// Clear all faults and outages: back to full capacity.
    Recover,
    /// Transient compile failure: for `for_ns` the shard completes running
    /// work but cannot start a new batch.
    CompileOutage {
        /// Length of the no-new-work window in ns.
        for_ns: u64,
    },
}

impl ChaosAction {
    /// Short label for logs and bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosAction::Crash => "crash",
            ChaosAction::Degrade(_) => "degrade",
            ChaosAction::Recover => "recover",
            ChaosAction::CompileOutage { .. } => "compile_outage",
        }
    }
}

/// One timed chaos event against one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// When the event fires, in trace time.
    pub at_ns: u64,
    /// Target shard (index into the pool; out-of-range targets are ignored
    /// by the scheduler so a schedule survives pool-size changes).
    pub shard: usize,
    /// What happens.
    pub action: ChaosAction,
}

/// Generator knobs for [`chaos_schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the event stream (independent of the arrival seed).
    pub seed: u64,
    /// Events are drawn uniformly over `[1, horizon_ns)` — use the expected
    /// span of the arrival trace.
    pub horizon_ns: u64,
    /// Crash/recover pairs to inject.
    pub crashes: usize,
    /// Degrade/recover pairs to inject.
    pub degradations: usize,
    /// Compile-outage windows to inject.
    pub compile_outages: usize,
    /// Mean outage/degradation duration; actual durations are drawn
    /// uniformly from `[mean/2, 2·mean]`.
    pub mean_outage_ns: u64,
    /// Fault plans degradations draw from. A small fixed menu keeps PICACHU
    /// shards on the warm degraded-compile cache instead of recompiling a
    /// novel plan per event; empty menu = no degradations.
    pub plan_menu: Vec<FaultPlan>,
}

impl ChaosConfig {
    /// A schedule of a couple of crashes, degradations and one compile
    /// outage over `horizon_ns`, with outages averaging an eighth of the
    /// horizon.
    pub fn new(seed: u64, horizon_ns: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            horizon_ns,
            crashes: 2,
            degradations: 2,
            compile_outages: 1,
            mean_outage_ns: (horizon_ns / 8).max(1),
            plan_menu: default_plan_menu(),
        }
    }
}

/// The standard degradation menu: one dead PE, one dead link, a two-PE
/// loss, and a seeded mixed plan. Fixed, so a schedule only ever draws
/// from these four degraded fabrics.
pub fn default_plan_menu() -> Vec<FaultPlan> {
    vec![
        FaultPlan::dead_tile(5),
        FaultPlan::dead_link(5, 6),
        FaultPlan::dead_tile(0).with_dead_tile(9),
        FaultPlan::seeded(0xC4A0_5EED, 4, 4),
    ]
}

/// Generates the chaos schedule: a list of [`ChaosEvent`]s sorted by
/// `(at_ns, shard)`, a pure function of `(cfg, n_shards)`. Crashes and
/// degradations are paired with a `Recover` one drawn duration later;
/// overlapping events on one shard are legal and the scheduler must keep
/// its invariants through any interleaving (a recover may land while a
/// later-scheduled crash is still pending — that is the chaos).
pub fn chaos_schedule(cfg: &ChaosConfig, n_shards: usize) -> Vec<ChaosEvent> {
    if n_shards == 0 || cfg.horizon_ns < 2 {
        return Vec::new();
    }
    let mut rng = TestRng::seed_from_u64(cfg.seed ^ 0xC4A0_5C4A_05C4_A05C);
    let mean = cfg.mean_outage_ns.max(2);
    let mut out = Vec::new();
    let draw = |rng: &mut TestRng, out: &mut Vec<ChaosEvent>, action: ChaosAction| {
        let shard = rng.gen_range(0..n_shards);
        let at_ns = rng.gen_range(1..cfg.horizon_ns);
        let dur = rng.gen_range(mean / 2..=mean.saturating_mul(2)).max(1);
        match action {
            ChaosAction::CompileOutage { .. } => {
                out.push(ChaosEvent { at_ns, shard, action: ChaosAction::CompileOutage { for_ns: dur } });
            }
            other => {
                out.push(ChaosEvent { at_ns, shard, action: other });
                out.push(ChaosEvent {
                    at_ns: at_ns.saturating_add(dur),
                    shard,
                    action: ChaosAction::Recover,
                });
            }
        }
    };
    for _ in 0..cfg.crashes {
        draw(&mut rng, &mut out, ChaosAction::Crash);
    }
    if !cfg.plan_menu.is_empty() {
        for _ in 0..cfg.degradations {
            let plan = cfg.plan_menu[rng.gen_range(0..cfg.plan_menu.len())].clone();
            draw(&mut rng, &mut out, ChaosAction::Degrade(plan));
        }
    }
    for _ in 0..cfg.compile_outages {
        draw(&mut rng, &mut out, ChaosAction::CompileOutage { for_ns: 0 });
    }
    // stable sort: same-(t, shard) events keep generation order, so the
    // schedule is deterministic in the config alone
    out.sort_by_key(|e| (e.at_ns, e.shard));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_replay_and_respect_knobs() {
        let cfg = ChaosConfig::new(7, 1_000_000);
        let a = chaos_schedule(&cfg, 4);
        let b = chaos_schedule(&cfg, 4);
        assert_eq!(a, b);
        let c = chaos_schedule(&ChaosConfig { seed: 8, ..cfg.clone() }, 4);
        assert_ne!(a, c, "seed must move the schedule");
        let crashes = a.iter().filter(|e| e.action == ChaosAction::Crash).count();
        let recovers = a.iter().filter(|e| e.action == ChaosAction::Recover).count();
        let outages = a
            .iter()
            .filter(|e| matches!(e.action, ChaosAction::CompileOutage { .. }))
            .count();
        assert_eq!(crashes, cfg.crashes);
        assert_eq!(outages, cfg.compile_outages);
        assert_eq!(recovers, cfg.crashes + cfg.degradations);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "sorted by time");
        assert!(a.iter().all(|e| e.shard < 4));
    }

    #[test]
    fn degenerate_configs_yield_empty_schedules() {
        assert!(chaos_schedule(&ChaosConfig::new(1, 1_000), 0).is_empty());
        assert!(chaos_schedule(&ChaosConfig::new(1, 0), 3).is_empty());
        let no_menu =
            ChaosConfig { plan_menu: Vec::new(), crashes: 0, compile_outages: 0, ..ChaosConfig::new(1, 1_000) };
        assert!(chaos_schedule(&no_menu, 3).is_empty());
    }

    #[test]
    fn outage_durations_bounded_by_mean() {
        let cfg = ChaosConfig {
            compile_outages: 32,
            crashes: 0,
            degradations: 0,
            mean_outage_ns: 1_000,
            ..ChaosConfig::new(3, 1_000_000)
        };
        for e in chaos_schedule(&cfg, 2) {
            if let ChaosAction::CompileOutage { for_ns } = e.action {
                assert!((500..=2_000).contains(&for_ns), "{for_ns}");
            }
        }
    }
}
