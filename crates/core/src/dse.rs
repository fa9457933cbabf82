//! Multi-objective HW/SW co-design search (the §2.2 CGRA-DSE tradition:
//! OpenCGRA, Aurora, APEX — here applied to the PICACHU configuration
//! knobs, §5.3.5's closing suggestion grown into a real search engine).
//!
//! The search is *joint* over hardware and compiler knobs: fabric geometry
//! and flavor (the heterogeneous PICACHU layout vs. the all-universal
//! routing-free fabric — the NoC/heterogeneity axis [`CgraSpec`] exposes),
//! Shared-Buffer capacity, kernel data format, the compiler's unroll
//! portfolio, and whether the degradation ladder may use incremental repair.
//! Each candidate is scored on four objectives:
//!
//! 1. **latency** — end-to-end cycles for the target model,
//! 2. **energy** — nJ under the Table 7 model, with the CGRA activity
//!    factor derived from the *compiled mappings* (`placements/(tiles×II)`),
//!    not the paper's nominal 0.7,
//! 3. **area** — mm² of the configured silicon,
//! 4. **resilience** — degraded-capacity retention under a fixed set of
//!    [`FaultPlan`]s, scored through the real degradation ladder
//!    (`1/ii_inflation`, 0 for a rejected fabric).
//!
//! Rather than exhausting the (combinatorial) knob grid, [`search`] runs a
//! small seeded generational loop: a population containing the deployed
//! default plus random samples, then mutations of the current Pareto
//! frontier. Every generation evaluates in parallel on the
//! [`picachu_runtime`] pool, and every engine of one search shares that
//! search's [`CompileCache`], so candidates sharing a fabric/format share
//! kernel compilations. The result is deterministic in
//! ([`SearchConfig::seed`], model) and independent of the thread count.
//!
//! Frontier extraction is *n*-dimensional Pareto dominance under
//! [`f64::total_cmp`] — a total order, so NaNs, ties and duplicates cannot
//! corrupt the sort or make the frontier thread-dependent; exact objective
//! ties are deduplicated (the frontier is a set of distinct trade-offs).

use crate::compile_cache::CompileCache;
use crate::engine::{EngineConfig, FabricKind, PicachuEngine};
use picachu_backend::Accelerator;
use picachu_faults::FaultPlan;
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;
use picachu_num::DataFormat;
use picachu_testkit::TestRng;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Number of scored objectives (latency, energy, area, resilience).
pub const OBJECTIVES: usize = 4;

/// The configuration knobs of one candidate — everything needed to
/// reconstruct its [`EngineConfig`]. `Eq + Hash` so the search can
/// deduplicate candidates it has already evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignKnobs {
    /// CGRA rows.
    pub cgra_rows: usize,
    /// CGRA cols.
    pub cgra_cols: usize,
    /// Heterogeneous PICACHU fabric or the all-universal flavor.
    pub fabric: FabricKind,
    /// Shared Buffer KB.
    pub buffer_kb: usize,
    /// Kernel data format.
    pub format: DataFormat,
    /// `true` → the compiler tries only the lean `[1, 4]` unroll portfolio
    /// (cheaper compiles, possibly worse II); `false` → the full
    /// `[1, 2, 4, 8]` search.
    pub lean_unroll: bool,
    /// Whether the degradation ladder may repair the healthy mapping
    /// incrementally (`true`, the deployed default) or must always re-map
    /// from scratch on a faulted fabric (`false`).
    pub incremental_repair: bool,
}

impl DesignKnobs {
    /// The knobs of [`EngineConfig::default`] — the baseline every searched
    /// point is measured against. Seeding the population with it guarantees
    /// the frontier only ever *improves on* (or ties) the deployed config.
    pub fn baseline() -> DesignKnobs {
        let d = EngineConfig::default();
        DesignKnobs {
            cgra_rows: d.cgra_rows,
            cgra_cols: d.cgra_cols,
            fabric: d.fabric,
            buffer_kb: d.buffer_kb,
            format: d.format,
            lean_unroll: d.unroll_candidates == LEAN_UNROLL,
            incremental_repair: d.incremental_repair,
        }
    }

    /// The full engine configuration these knobs denote (all non-searched
    /// knobs at their defaults).
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            cgra_rows: self.cgra_rows,
            cgra_cols: self.cgra_cols,
            fabric: self.fabric,
            buffer_kb: self.buffer_kb,
            format: self.format,
            unroll_candidates: if self.lean_unroll {
                LEAN_UNROLL.to_vec()
            } else {
                FULL_UNROLL.to_vec()
            },
            incremental_repair: self.incremental_repair,
            ..EngineConfig::default()
        }
    }
}

impl fmt::Display for DesignKnobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} {} CGRA, {} KB, {}, {} unroll, repair {}",
            self.cgra_rows,
            self.cgra_cols,
            self.fabric,
            self.buffer_kb,
            self.format,
            if self.lean_unroll { "lean" } else { "full" },
            if self.incremental_repair { "incremental" } else { "full-remap" },
        )
    }
}

/// The full `[1, 2, 4, 8]` unroll portfolio ([`EngineConfig::default`]).
pub const FULL_UNROLL: [usize; 4] = [1, 2, 4, 8];
/// The lean `[1, 4]` portfolio the `lean_unroll` knob selects.
pub const LEAN_UNROLL: [usize; 2] = [1, 4];

/// One evaluated design point: the knobs plus the four scored objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The candidate's configuration knobs.
    pub knobs: DesignKnobs,
    /// End-to-end latency in cycles for the target workload.
    pub latency: f64,
    /// Energy in nJ for that run, CGRA activity from the compiled mappings.
    pub energy_nj: f64,
    /// Total silicon area in mm² (CGRA + systolic + SRAM + glue).
    pub area_mm2: f64,
    /// Mean degraded-capacity retention in `[0, 1]` across the scored fault
    /// plans: `1/max(1, ii_inflation)` per plan, 0 when the ladder rejects.
    pub resilience: f64,
    /// Mean mapped CGRA utilization (`placements/(tiles×II)`) — the
    /// activity factor the energy objective was priced at.
    pub utilization: f64,
}

impl DesignPoint {
    /// The objective vector, oriented so *smaller is better on every axis*
    /// (resilience is negated). All dominance and sorting logic runs on
    /// this vector under [`f64::total_cmp`].
    pub fn objectives(&self) -> [f64; OBJECTIVES] {
        [self.latency, self.energy_nj, self.area_mm2, -self.resilience]
    }

    /// Instantiates the point as a configured engine — a first-class
    /// [`Accelerator`] `picachu-serve` can deploy directly (see
    /// `ShardSpec::from_design`).
    pub fn instantiate(&self) -> PicachuEngine {
        PicachuEngine::new(self.knobs.engine_config())
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3e} cycles, {:.3e} nJ, {:.2} mm2, resilience {:.2}",
            self.knobs, self.latency, self.energy_nj, self.area_mm2, self.resilience
        )
    }
}

/// `true` when objective vector `a` Pareto-dominates `b`: no worse on every
/// axis and strictly better on at least one, under the [`f64::total_cmp`]
/// total order (so NaN sorts as an extreme value instead of poisoning the
/// comparison, and the relation stays antisymmetric for any inputs).
pub fn dominates(a: &[f64; OBJECTIVES], b: &[f64; OBJECTIVES]) -> bool {
    let mut strictly_better = false;
    for i in 0..OBJECTIVES {
        match a[i].total_cmp(&b[i]) {
            Ordering::Greater => return false,
            Ordering::Less => strictly_better = true,
            Ordering::Equal => {}
        }
    }
    strictly_better
}

/// Lexicographic total order on objective vectors (`total_cmp` per axis) —
/// the deterministic sort key for evaluated points and the frontier.
pub fn cmp_objectives(a: &[f64; OBJECTIVES], b: &[f64; OBJECTIVES]) -> Ordering {
    for i in 0..OBJECTIVES {
        match a[i].total_cmp(&b[i]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// Filters a point set to its multi-dimensional Pareto frontier: no other
/// point dominates a member, and exact objective ties are deduplicated (the
/// frontier is a *set* of distinct trade-offs — a swept grid often lands
/// several knob combinations on identical objective vectors, e.g. buffer
/// sizes that differ only on an axis a model never stresses). Sorted by
/// [`cmp_objectives`], so the output is independent of input order up to
/// which representative of an exact tie survives (the first, in input
/// order — and [`search`] evaluates in a deterministic order).
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut frontier: Vec<DesignPoint> = Vec::new();
    for p in points {
        let obj = p.objectives();
        if points.iter().any(|q| dominates(&q.objectives(), &obj)) {
            continue;
        }
        if frontier.iter().any(|f| cmp_objectives(&f.objectives(), &obj) == Ordering::Equal) {
            continue;
        }
        frontier.push(p.clone());
    }
    frontier.sort_by(|a, b| cmp_objectives(&a.objectives(), &b.objectives()));
    frontier
}

/// The search configuration: seed, budget, and the knob domains.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Seed for the generational sampler (population + mutations).
    pub seed: u64,
    /// Number of generations (the first is baseline + random samples).
    pub generations: usize,
    /// Candidates per generation (already-evaluated knobs are skipped).
    pub population: usize,
    /// Evaluation sequence length.
    pub seq: usize,
    /// Fabric geometries the search may pick.
    pub geometries: Vec<(usize, usize)>,
    /// Shared Buffer capacities (KB) the search may pick.
    pub buffers_kb: Vec<usize>,
    /// Fault plans the resilience objective scores under. Tile/link indices
    /// must be valid on the *smallest* geometry in `geometries` so every
    /// candidate faces the same faults.
    pub fault_plans: Vec<FaultPlan>,
}

impl Default for SearchConfig {
    /// The full search space: eight geometries × four buffer sizes × both
    /// formats × both fabrics × both unroll portfolios × both repair
    /// policies (512 knob combinations), sampled by a 4-generation loop.
    /// The 12×12 and 16×16 entries are served by the annealed
    /// Place→Route→Fold pipeline (`picachu-compiler`'s mapper switches
    /// engines above 64 tiles), so the search can weigh scale-up fabrics
    /// with realistic routing instead of extrapolating from 6×6. The fault
    /// plans (a mid-fabric dead PE; a dead link plus a corner PE) are valid
    /// on every geometry down to 3×3.
    fn default() -> SearchConfig {
        SearchConfig {
            seed: 0xC0DE_5EED,
            generations: 4,
            population: 10,
            seq: 256,
            geometries: vec![
                (3, 3),
                (4, 3),
                (4, 4),
                (5, 4),
                (5, 5),
                (6, 6),
                (12, 12),
                (16, 16),
            ],
            buffers_kb: vec![20, 40, 80, 160],
            fault_plans: vec![
                FaultPlan::dead_tile(5),
                FaultPlan::dead_link(0, 1).with_dead_tile(8),
            ],
        }
    }
}

impl SearchConfig {
    /// A tiny deterministic search for smoke tests and CI: two small
    /// geometries, two buffer sizes, one fault plan, two generations.
    pub fn smoke(seed: u64) -> SearchConfig {
        SearchConfig {
            seed,
            generations: 2,
            population: 6,
            seq: 64,
            geometries: vec![(3, 3), (4, 4)],
            buffers_kb: vec![20, 40],
            fault_plans: vec![FaultPlan::dead_tile(5)],
        }
    }
}

/// What [`search`] returns: the evaluated archive and its Pareto frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Every distinct candidate evaluated, sorted by [`cmp_objectives`].
    pub evaluated: Vec<DesignPoint>,
    /// The multi-dimensional Pareto frontier of `evaluated`.
    pub frontier: Vec<DesignPoint>,
}

/// Runs the seeded generational co-design search for a model.
///
/// Generation 0 is [`DesignKnobs::baseline`] plus seeded random samples;
/// each later generation mutates the current frontier's members (one knob
/// per mutation) and tops up with fresh random samples. Candidates are
/// deduplicated across the whole run, evaluated in parallel on the
/// [`picachu_runtime`] pool (thread count from `PICACHU_THREADS` or the
/// hardware), and share kernel compilations through one [`CompileCache`]
/// made for this call. Deterministic in `(model, cfg)`: the sampler
/// is a seeded [`TestRng`], the pool returns results in submission order,
/// and every comparison runs under [`f64::total_cmp`].
///
/// Candidates whose kernels fail to map (a degenerate geometry) are dropped
/// from the archive rather than scored.
pub fn search(model: &ModelConfig, cfg: &SearchConfig) -> SearchResult {
    let cache = Arc::new(CompileCache::new());
    let mut rng = TestRng::seed_from_u64(cfg.seed);
    let mut seen: HashSet<DesignKnobs> = HashSet::new();
    let mut evaluated: Vec<DesignPoint> = Vec::new();

    let mut generation: Vec<DesignKnobs> = vec![DesignKnobs::baseline()];
    while generation.len() < cfg.population.max(1) {
        generation.push(random_knobs(&mut rng, cfg));
    }
    for g in 0..cfg.generations.max(1) {
        generation.retain(|k| seen.insert(*k));
        if !generation.is_empty() {
            let scored = picachu_runtime::parallel_map(&generation, |_, k| {
                evaluate(model, cfg, &cache, *k)
            });
            evaluated.extend(scored.into_iter().flatten());
        }
        if g + 1 == cfg.generations.max(1) {
            break;
        }
        // breed the next generation from the frontier so far: two mutation
        // passes over its members, then fresh random exploration
        let frontier = pareto_frontier(&evaluated);
        let mut next = Vec::new();
        let mut parent = 0usize;
        while next.len() < cfg.population.max(1) {
            if !frontier.is_empty() && parent < frontier.len() * 2 {
                next.push(mutate(frontier[parent % frontier.len()].knobs, &mut rng, cfg));
                parent += 1;
            } else {
                next.push(random_knobs(&mut rng, cfg));
            }
        }
        generation = next;
    }

    evaluated.sort_by(|a, b| cmp_objectives(&a.objectives(), &b.objectives()));
    let frontier = pareto_frontier(&evaluated);
    SearchResult { evaluated, frontier }
}

/// Draws uniform random knobs from the configured domains.
fn random_knobs(rng: &mut TestRng, cfg: &SearchConfig) -> DesignKnobs {
    let (cgra_rows, cgra_cols) = cfg.geometries[rng.gen_range(0..cfg.geometries.len())];
    DesignKnobs {
        cgra_rows,
        cgra_cols,
        fabric: if rng.gen_range(0..2usize) == 0 {
            FabricKind::Heterogeneous
        } else {
            FabricKind::Universal
        },
        buffer_kb: cfg.buffers_kb[rng.gen_range(0..cfg.buffers_kb.len())],
        format: if rng.gen_range(0..2usize) == 0 { DataFormat::Fp16 } else { DataFormat::Int16 },
        lean_unroll: rng.gen_range(0..2usize) == 1,
        incremental_repair: rng.gen_range(0..2usize) == 0,
    }
}

/// Mutates exactly one knob: geometry/buffer step to a random *other* value
/// of their domain, the binary knobs flip.
fn mutate(mut k: DesignKnobs, rng: &mut TestRng, cfg: &SearchConfig) -> DesignKnobs {
    match rng.gen_range(0..5usize) {
        0 if cfg.geometries.len() > 1 => {
            let cur = cfg
                .geometries
                .iter()
                .position(|&g| g == (k.cgra_rows, k.cgra_cols))
                .unwrap_or(0);
            let step = 1 + rng.gen_range(0..cfg.geometries.len() - 1);
            let (r, c) = cfg.geometries[(cur + step) % cfg.geometries.len()];
            k.cgra_rows = r;
            k.cgra_cols = c;
        }
        1 if cfg.buffers_kb.len() > 1 => {
            let cur = cfg.buffers_kb.iter().position(|&b| b == k.buffer_kb).unwrap_or(0);
            let step = 1 + rng.gen_range(0..cfg.buffers_kb.len() - 1);
            k.buffer_kb = cfg.buffers_kb[(cur + step) % cfg.buffers_kb.len()];
        }
        2 => {
            k.fabric = match k.fabric {
                FabricKind::Heterogeneous => FabricKind::Universal,
                FabricKind::Universal => FabricKind::Heterogeneous,
            };
        }
        3 => {
            k.format =
                if k.format == DataFormat::Fp16 { DataFormat::Int16 } else { DataFormat::Fp16 };
        }
        _ => {
            // couple the two compiler-strategy bits half the time each
            if rng.gen_range(0..2usize) == 0 {
                k.lean_unroll = !k.lean_unroll;
            } else {
                k.incremental_repair = !k.incremental_repair;
            }
        }
    }
    k
}

/// Scores one candidate on all four objectives, or `None` when its kernels
/// fail to map.
fn evaluate(
    model: &ModelConfig,
    cfg: &SearchConfig,
    cache: &Arc<CompileCache>,
    knobs: DesignKnobs,
) -> Option<DesignPoint> {
    let mut engine = PicachuEngine::with_cache(knobs.engine_config(), cache.clone());
    let ops = model.nonlinear_ops();
    // grouped flat compile batch (parallel when threads are free; inside a
    // pool worker it degrades to serial, still deterministic)
    engine.prewarm(&ops).ok()?;
    let b = engine.execute_model(model, cfg.seq);
    let latency = b.total();
    let utilization = engine.cgra_utilization(&ops).ok().flatten().unwrap_or(0.7);
    let energy_nj = engine.energy_nj_at_utilization(&b, utilization);
    let area_mm2 = engine.area_mm2();
    let resilience = resilience_score(&mut engine, &ops, &cfg.fault_plans);
    Some(DesignPoint { knobs, latency, energy_nj, area_mm2, resilience, utilization })
}

/// Mean degraded-capacity retention across the fault plans —
/// `1/max(1, worst ii_inflation)` per plan, 0 when the ladder rejects the
/// fabric entirely.
fn resilience_score(engine: &mut PicachuEngine, ops: &[NonlinearOp], plans: &[FaultPlan]) -> f64 {
    if plans.is_empty() {
        return 1.0;
    }
    let mut sum = 0.0;
    for plan in plans {
        let mut worst = 1.0f64;
        let mut rejected = false;
        for &op in ops {
            match engine.compile_op_degraded(op, plan) {
                Ok(d) => worst = worst.max(d.ii_inflation),
                Err(_) => {
                    rejected = true;
                    break;
                }
            }
        }
        if !rejected {
            sum += 1.0 / worst.max(1.0);
        }
    }
    sum / plans.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> SearchConfig {
        SearchConfig::smoke(seed)
    }

    #[test]
    fn search_is_deterministic_and_nonempty() {
        let cfg = smoke(7);
        let a = search(&ModelConfig::gpt2(), &cfg);
        let b = search(&ModelConfig::gpt2(), &cfg);
        assert!(!a.evaluated.is_empty() && !a.frontier.is_empty());
        assert_eq!(a, b, "search must be deterministic in (model, config)");
    }

    #[test]
    fn baseline_knobs_are_always_evaluated() {
        let r = search(&ModelConfig::gpt2(), &smoke(11));
        assert!(
            r.evaluated.iter().any(|p| p.knobs == DesignKnobs::baseline()),
            "generation 0 must contain the deployed default"
        );
    }

    #[test]
    fn frontier_is_subset_nondominated_and_deduped() {
        let r = search(&ModelConfig::gpt2(), &smoke(13));
        assert!(!r.frontier.is_empty() && r.frontier.len() <= r.evaluated.len());
        for (i, a) in r.frontier.iter().enumerate() {
            for (j, b) in r.frontier.iter().enumerate() {
                if i != j {
                    assert!(
                        !dominates(&b.objectives(), &a.objectives()),
                        "{b} dominates {a}"
                    );
                    assert_ne!(
                        cmp_objectives(&a.objectives(), &b.objectives()),
                        Ordering::Equal,
                        "frontier must dedupe exact objective ties"
                    );
                }
            }
        }
    }

    #[test]
    fn objectives_are_finite_and_resilience_in_unit_interval() {
        let r = search(&ModelConfig::gpt2(), &smoke(17));
        for p in &r.evaluated {
            assert!(p.latency.is_finite() && p.latency > 0.0, "{p}");
            assert!(p.energy_nj.is_finite() && p.energy_nj > 0.0, "{p}");
            assert!(p.area_mm2.is_finite() && p.area_mm2 > 0.0, "{p}");
            assert!((0.0..=1.0).contains(&p.resilience), "{p}");
            assert!((0.0..=1.0).contains(&p.utilization), "{p}");
        }
    }

    #[test]
    fn evaluated_is_sorted_and_distinct() {
        let r = search(&ModelConfig::gpt2(), &smoke(19));
        for w in r.evaluated.windows(2) {
            assert_ne!(
                cmp_objectives(&w[0].objectives(), &w[1].objectives()),
                Ordering::Greater
            );
        }
        let mut knobs: Vec<DesignKnobs> = r.evaluated.iter().map(|p| p.knobs).collect();
        let n = knobs.len();
        knobs.dedup();
        assert_eq!(n, knobs.len(), "no knob combination is evaluated twice");
    }

    #[test]
    fn frontier_point_instantiates_and_round_trips_config() {
        let r = search(&ModelConfig::gpt2(), &smoke(23));
        let p = &r.frontier[0];
        let config = p.knobs.engine_config();
        assert_eq!(config.cgra_rows, p.knobs.cgra_rows);
        assert_eq!(config.fabric, p.knobs.fabric);
        let mut engine = p.instantiate();
        let b = engine.execute_model(&ModelConfig::gpt2(), 64);
        assert!(b.total() > 0.0);
        assert!((engine.area_mm2() - p.area_mm2).abs() < 1e-9, "area must reproduce");
    }

    #[test]
    fn dominance_is_irreflexive_and_handles_nan() {
        let v = [1.0, 2.0, 3.0, -0.5];
        assert!(!dominates(&v, &v));
        let nan = [f64::NAN, 2.0, 3.0, -0.5];
        // under total_cmp, +NaN is worse (greater) than any finite latency
        assert!(dominates(&v, &nan));
        assert!(!dominates(&nan, &v));
        assert!(!dominates(&nan, &nan));
    }
}
