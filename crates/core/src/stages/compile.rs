//! Stage 1 — the compile service.
//!
//! Turns nonlinear operations into CGRA mappings: builds the kernel, then
//! per loop picks the unroll factor minimizing the per-element II (and the
//! INT16 vector factor when the format selects it). All compilation flows
//! through the service's [`CompileCache`] handle (private to its engine
//! unless the engine was built on a shared one), with one answer memo per
//! op and fault set on top; the healthy compile is its empty-fault entry,
//! which only [`CompileService::warm`] produces. Every compile is a function
//! of `(config, op, fault plan)` only: whether an engine sharing the handle
//! already compiled a key changes how fast an answer arrives, never which
//! answer. Under faults the service walks the DESIGN §7 degradation ladder:
//! incremental repair → re-map → universal-fabric re-map → reject.
//!
//! Cold compilation is one **flat** parallel pass: the full
//! `(op × loop × unroll × II × attempt)` search space goes to
//! `try_parallel_find_first_grouped` as a single deterministic work queue
//! (DESIGN §10), never a pool-inside-a-pool.

use crate::compile_cache::{CompileCache, CompileKey};
use crate::engine::{EngineConfig, FabricKind};
use crate::error::PicachuError;
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::{
    repair_mapping, MapError, Mapping, ResourceMask, SearchGrid,
};
use picachu_compiler::transform::{fuse_patterns, unroll, vectorize};
use picachu_faults::FaultPlan;
use picachu_ir::dfg::Dfg;
use picachu_ir::kernels as klib;
use picachu_nonlinear::{LoopKind, NonlinearOp};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How far down the degradation ladder a faulted compile had to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackLevel {
    /// The kernel incrementally repaired its cached healthy mapping: the II
    /// and every undisturbed placement were retained, only the sub-DFG the
    /// faults touched was re-placed. The cheapest genuine re-map.
    Incremental,
    /// The kernel re-mapped around the faults on the engine's own fabric.
    Remapped,
    /// The kernel only mapped on the all-universal fallback fabric (every PE
    /// supports every opcode — lower ResMII pressure around dead tiles).
    Universal,
}

impl fmt::Display for FallbackLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackLevel::Incremental => write!(f, "incrementally repaired"),
            FallbackLevel::Remapped => write!(f, "re-mapped"),
            FallbackLevel::Universal => write!(f, "universal-fabric fallback"),
        }
    }
}

/// Result of compiling an op for a degraded fabric: the loops plus how
/// degraded the service is.
#[derive(Debug, Clone)]
pub struct DegradedCompile {
    /// The compiled loops.
    pub loops: Arc<Vec<CompiledLoop>>,
    /// Which rung of the degradation ladder produced them.
    pub fallback: FallbackLevel,
    /// Σ degraded II / Σ healthy II across the op's loops — reported, not
    /// asserted (detours usually inflate II, but a smaller live portfolio
    /// can occasionally luck into a better placement). `1.0` when the
    /// healthy compile fails, so no baseline exists to compare against.
    pub ii_inflation: f64,
    /// Alive PEs on the fabric the loops run on.
    pub alive_tiles: usize,
}

/// One compiled kernel loop: its mapping plus the unroll/vector factors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLoop {
    /// Loop label (e.g. `"softmax(2)"`).
    pub label: String,
    /// Reduction or element-wise.
    pub kind: LoopKind,
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Unroll factor.
    pub uf: usize,
    /// Vector factor (4 for INT16, else 1).
    pub vf: usize,
}

impl CompiledLoop {
    /// Elements produced per initiation interval.
    pub fn elements_per_ii(&self) -> usize {
        self.uf * self.vf
    }

    /// Cycles to process `elements` elements in steady state.
    pub fn cycles(&self, elements: u64) -> u64 {
        let iters = elements.div_ceil(self.elements_per_ii() as u64);
        self.mapping.cycles_for(iters)
    }
}

/// A memo key: the op plus a fault plan's dead tiles and dead links, as the
/// degraded [`CompileKey`] carries them.
type MemoKey = (NonlinearOp, Vec<usize>, Vec<(usize, usize)>);

/// The memo key of `op`'s healthy compile (allocates nothing).
fn healthy_key(op: NonlinearOp) -> MemoKey {
    (op, Vec::new(), Vec::new())
}

/// The compile stage: owns the fabric specification, the compile-cache
/// handle and the memo of every answer it gave.
#[derive(Debug)]
pub struct CompileService {
    spec: CgraSpec,
    pub(crate) cache: Arc<CompileCache>,
    /// Every answer this service gave, failures included (a failure
    /// publishes nothing to the cache): a repeat request is answered here
    /// without a cache lookup or a rung walked.
    memo: HashMap<MemoKey, Result<DegradedCompile, PicachuError>>,
}

impl CompileService {
    /// A service compiling onto `spec` through `cache` (kernels compile
    /// lazily on first use).
    pub fn new(spec: CgraSpec, cache: Arc<CompileCache>) -> CompileService {
        CompileService { spec, cache, memo: HashMap::new() }
    }

    /// The CGRA fabric specification in use.
    pub fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    /// The healthy loops this service holds for `op`, empty when it has not
    /// compiled `op` or `op` failed to map (every kernel has a loop). Never
    /// reads the shared cache, so it depends only on this service's calls.
    pub(crate) fn loops(&self, op: NonlinearOp) -> &[CompiledLoop] {
        match self.memo.get(&healthy_key(op)) {
            Some(Ok(healthy)) => &healthy.loops,
            _ => &[],
        }
    }

    /// The non-panicking compile path: the loops of `op`'s healthy entry,
    /// reporting failure as a typed error instead of aborting.
    ///
    /// # Errors
    /// [`PicachuError::Compile`] when some kernel loop fails to map at every
    /// candidate unroll factor.
    pub fn try_compile_op(
        &mut self,
        config: &EngineConfig,
        op: NonlinearOp,
    ) -> Result<Arc<Vec<CompiledLoop>>, PicachuError> {
        self.compile_op_degraded(config, op, &FaultPlan::none()).map(|healthy| healthy.loops)
    }

    /// Records the healthy entry of every distinct operation in `ops`, the
    /// only code that produces one. Ops without an entry look up the cache
    /// once each, and the **entire** `(op × loop × unroll × II × attempt)`
    /// search space of the true misses goes to the [`picachu_runtime`] pool
    /// as one flat grouped pass (see [`CompileService::compile_batch`]),
    /// bit-identical to a serial warm. Every op's answer is recorded,
    /// failures included, so a failing op discards no sibling's work. The
    /// engine's trace walk calls this first, so a cold engine doesn't
    /// compile op by op on the walk.
    ///
    /// # Errors
    /// [`PicachuError::Compile`] for the first (in `ops` order) operation
    /// whose kernel fails to map.
    pub fn warm(
        &mut self,
        config: &EngineConfig,
        ops: &[NonlinearOp],
    ) -> Result<(), PicachuError> {
        // an intact-fabric plan's answer: every tile alive, no II inflation
        let alive_tiles = self.spec.len();
        let healthy = |loops: Result<_, PicachuError>| {
            let fallback = FallbackLevel::Remapped;
            loops.map(|loops| DegradedCompile { loops, fallback, ii_inflation: 1.0, alive_tiles })
        };
        let mut misses: Vec<NonlinearOp> = Vec::new();
        for &op in ops {
            if self.memo.contains_key(&healthy_key(op)) || misses.contains(&op) {
                continue;
            }
            // cache hits are cheap lookups; only real mapping work goes to
            // the pool
            let Some(hit) = self.cache.lookup(&self.compile_key(config, op)) else {
                misses.push(op);
                continue;
            };
            self.memo.insert(healthy_key(op), healthy(Ok(hit)));
        }
        if !misses.is_empty() {
            let full = ResourceMask::full(&self.spec);
            let compiled = self.compile_batch(config, &misses, &self.spec, &full)?;
            for (&op, loops) in misses.iter().zip(compiled) {
                let loops = loops.map(|l| self.cache.publish(self.compile_key(config, op), l));
                self.memo.insert(healthy_key(op), healthy(loops));
            }
        }
        for &op in ops {
            if let Some(Err(e)) = self.memo.get(&healthy_key(op)) {
                return Err(e.clone());
            }
        }
        Ok(())
    }

    /// Compiles `op` for a fault plan's fabric: the memo's answer for the op
    /// and the plan's dead tiles and dead links. On an intact fabric that is
    /// the healthy entry, which [`Self::warm`] records on a miss; otherwise a
    /// miss walks the degradation ladder (DESIGN §7). The healthy compile
    /// comes first, as the II-inflation and repair base. Then **incremental
    /// repair** of the healthy mapping (retained II, only the disturbed
    /// sub-DFG re-placed) → **re-map** around the dead resources on the
    /// engine's own fabric → **universal-fabric** re-map (every PE supports
    /// every opcode) → **reject** with the primary error. Every successful
    /// compile is published to the service's cache under its exact fault
    /// set, so repeated requests against the same degraded part hit it, and
    /// the memo keeps each answer (failures included), so a repeat request
    /// on the same service walks no rung at all.
    ///
    /// # Errors
    /// [`PicachuError::Compile`] when every rung fails — the error carries
    /// the mapper's diagnosis from the own-fabric re-map rung, which is the
    /// informative one. On an intact fabric, the healthy compile's error.
    pub fn compile_op_degraded(
        &mut self,
        config: &EngineConfig,
        op: NonlinearOp,
        plan: &FaultPlan,
    ) -> Result<DegradedCompile, PicachuError> {
        let key: MemoKey = (
            op,
            plan.dead_tiles.iter().copied().collect(),
            plan.dead_links.iter().copied().collect(),
        );
        if let Some(answer) = self.memo.get(&key) {
            return answer.clone();
        }
        if !plan.fabric_intact() {
            let answer = self.walk_ladder(config, op, plan);
            self.memo.insert(key, answer.clone());
            return answer;
        }
        // warm records the answer, or returns a search worker's panic
        self.warm(config, std::slice::from_ref(&op))?;
        self.memo[&key].clone()
    }

    /// The ladder walk behind [`Self::compile_op_degraded`] for a plan with
    /// dead tiles or links.
    fn walk_ladder(
        &mut self,
        config: &EngineConfig,
        op: NonlinearOp,
        plan: &FaultPlan,
    ) -> Result<DegradedCompile, PicachuError> {
        let healthy = self.try_compile_op(config, op).ok();
        let healthy_ii: Option<u64> =
            healthy.as_ref().map(|loops| loops.iter().map(|l| l.mapping.ii as u64).sum());
        let answer = |loops: Arc<Vec<CompiledLoop>>, fallback, alive_tiles| {
            let ii: u64 = loops.iter().map(|l| l.mapping.ii as u64).sum();
            let ii_inflation = match healthy_ii {
                Some(h) if h > 0 => ii as f64 / h as f64,
                _ => 1.0,
            };
            DegradedCompile { loops, fallback, ii_inflation, alive_tiles }
        };
        let key = self.degraded_key(config, op, plan, false);
        let mask = ResourceMask::degraded(
            &self.spec,
            plan.dead_tiles.iter().copied(),
            plan.dead_links.iter().copied(),
        );
        // rung 1: incremental repair — retain the healthy II and every
        // placement the faults did not disturb, re-placing only the affected
        // sub-DFG. Off when the config opts out (`incremental_repair: false`
        // deployments keep no mapping resident, so every fault is a full
        // re-map — a DSE compiler-strategy knob).
        if let (true, Some(healthy)) = (config.incremental_repair, &healthy) {
            let ikey = CompileKey { incremental: true, ..key.clone() };
            let repaired = self.cache.get_or_compile(ikey, || {
                self.try_repair_loops(config, op, &mask, healthy).ok_or(())
            });
            if let Ok(loops) = repaired {
                return Ok(answer(loops, FallbackLevel::Incremental, mask.alive_count()));
            }
        }
        // rung 2: full re-map around the faults on the engine's own fabric
        let primary =
            self.cache.get_or_compile(key, || self.compile_one(config, op, &self.spec, &mask));
        let primary_err = match primary {
            Ok(loops) => return Ok(answer(loops, FallbackLevel::Remapped, mask.alive_count())),
            Err(e) => e,
        };
        // rung 3: the all-universal fallback fabric, same fault set
        let uspec = CgraSpec::universal(config.cgra_rows, config.cgra_cols);
        let umask = ResourceMask::degraded(
            &uspec,
            plan.dead_tiles.iter().copied(),
            plan.dead_links.iter().copied(),
        );
        let ukey = self.degraded_key(config, op, plan, true);
        self.cache
            .get_or_compile(ukey, || self.compile_one(config, op, &uspec, &umask))
            .map(|loops| answer(loops, FallbackLevel::Universal, umask.alive_count()))
            // rung 4: reject, with the informative (own-fabric) diagnosis
            .map_err(|_| primary_err)
    }

    /// The cache key for this configuration's compilation of
    /// `op`: everything the compile kernel reads. `buffer_kb` and the
    /// ablation knobs are absent because mapping never sees them. The
    /// `universal` flag mirrors the config's fabric flavor — a 4×4
    /// universal-fabric engine must never alias a 4×4 heterogeneous one.
    pub(crate) fn compile_key(&self, config: &EngineConfig, op: NonlinearOp) -> CompileKey {
        CompileKey {
            op,
            cgra_rows: config.cgra_rows,
            cgra_cols: config.cgra_cols,
            format: config.format,
            taylor_terms: config.taylor_terms,
            unroll_candidates: config.unroll_candidates.clone(),
            seed: config.seed,
            dead_tiles: Vec::new(),
            dead_links: Vec::new(),
            universal: config.fabric == FabricKind::Universal,
            incremental: false,
        }
    }

    /// The cache key for a degraded compile: the healthy key plus the exact
    /// fault set and fallback-fabric flag. On a universal-base engine the
    /// healthy key already carries `universal: true`, and the rung-3
    /// fallback fabric coincides with the engine's own — either way the key
    /// names the fabric the mapping was actually placed on.
    fn degraded_key(
        &self,
        config: &EngineConfig,
        op: NonlinearOp,
        plan: &FaultPlan,
        universal: bool,
    ) -> CompileKey {
        let healthy = self.compile_key(config, op);
        CompileKey {
            dead_tiles: plan.dead_tiles.iter().copied().collect(),
            dead_links: plan.dead_links.iter().copied().collect(),
            universal: universal || healthy.universal,
            ..healthy
        }
    }

    /// The compile kernel shared by the healthy and degraded paths, batched:
    /// per kernel loop of every op, picks the unroll factor minimizing
    /// per-element II among the candidates that map on `spec` restricted to
    /// `mask` — exactly the serial per-op semantics, but with the **entire**
    /// `(op × loop × unroll × II × attempt)` portfolio submitted as one flat
    /// [`try_parallel_find_first_grouped`](picachu_runtime) pass. One group
    /// per `(op, loop, unroll)` candidate; each group keeps its lowest-index
    /// (= lowest-II, earliest-attempt) success and early-kills the rest of
    /// its cells. Because the structure is flat — no `parallel_map` over ops
    /// wrapping a `find_first` over cells — the modulo-scheduling search
    /// parallelizes even on the cold path.
    ///
    /// **Per-loop bound.** Each kernel loop keeps one atomic holding the best
    /// success any of its groups has found so far, as (II, candidate) in the
    /// assembly's own order ([`precedes`]: exact per-element II, earlier
    /// unroll factor on a tie). Before a cell is evaluated, its II
    /// ([`SearchGrid::cell_ii`]) is checked against that bound: if a
    /// *different* group's success precedes it, the cell returns `None`
    /// without running Place. This is exact. A skipped cell is dominated by a
    /// found success, and the loop's final winner is at least as good as that
    /// success, so a skipped cell is never the winner's lowest-index success;
    /// the winning group's cells up to its first success are therefore never
    /// skipped and it resolves exactly as in a serial scan. A group whose
    /// cells are skipped resolves to an `Err` or a later success, and it
    /// would have lost the comparison anyway. A loop where nothing maps never
    /// gets a bound, so nothing is skipped and the reported error is
    /// unchanged. The selected mappings are bit-identical to the serial scan
    /// at any thread count.
    ///
    /// Which dominated cells run before the bound reaches them depends on
    /// timing. Only wall time depends on it, and whether a panic inside a
    /// dominated cell surfaces as [`MapError::Worker`].
    ///
    /// Returns one `Result` per op, in `ops` order: per-op failures (no
    /// unroll candidate mapped some loop) are values, so one unmappable op
    /// doesn't discard its siblings' work.
    ///
    /// # Errors
    /// The outer `Err` is reserved for a panicking search worker.
    fn compile_batch(
        &self,
        config: &EngineConfig,
        ops: &[NonlinearOp],
        spec: &CgraSpec,
        mask: &ResourceMask,
    ) -> Result<Vec<Result<Vec<CompiledLoop>, PicachuError>>, PicachuError> {
        /// One viable `(op, loop, unroll)` candidate: a lowering with its
        /// prepared portfolio grid, one group of the flat pass.
        struct Cand {
            op: NonlinearOp,
            label: String,
            dfg: Dfg,
            grid: SearchGrid,
            /// The batch-wide index of the kernel loop it competes in.
            loop_id: usize,
            uf: usize,
        }
        /// Per-unroll outcome slot of one kernel loop, in candidate order.
        enum Slot {
            /// Index into the candidate (= group) vector.
            Viable(usize),
            /// Failed before the search started (no capable tile).
            Dead(MapError),
        }
        struct LoopSlots {
            label: String,
            kind: LoopKind,
            slots: Vec<(usize, Slot)>, // (uf, outcome)
        }

        let vf = config.format.vector_factor();
        let mut cands: Vec<Cand> = Vec::new();
        // per op, per loop: the uf-ordered outcome slots
        let mut plan: Vec<Vec<LoopSlots>> = Vec::with_capacity(ops.len());
        let mut loops = 0;
        for &op in ops {
            let kernel = kernel_for(op, config.taylor_terms);
            let mut op_loops = Vec::with_capacity(kernel.loops.len());
            for (i, l) in kernel.loops.iter().enumerate() {
                let kind = match l.class {
                    klib::LoopClass::Reduction => LoopKind::Reduction,
                    klib::LoopClass::ElementWise => LoopKind::ElementWise,
                };
                // reductions vectorize with per-lane partial accumulators
                // (the vector φ holds four lane partials; the cross-lane
                // combine runs once per channel and is negligible), so every
                // loop gets the format's vector factor.
                let mut slots = Vec::with_capacity(config.unroll_candidates.len());
                for &uf in &config.unroll_candidates {
                    let dfg = self.lowered_dfg(config, op, i, uf, vf);
                    let seed = CompileService::loop_seed(config, i);
                    let slot = match SearchGrid::prepare(&dfg, spec, mask, seed, None) {
                        Ok(grid) => {
                            let label = l.label.clone();
                            cands.push(Cand { op, label, dfg, grid, loop_id: loops, uf });
                            Slot::Viable(cands.len() - 1)
                        }
                        Err(e) => Slot::Dead(e),
                    };
                    slots.push((uf, slot));
                }
                op_loops.push(LoopSlots { label: l.label.clone(), kind, slots });
                loops += 1;
            }
            plan.push(op_loops);
        }

        // the flat pass: group g = candidate g, cell i = grid cell i
        let bounds = LoopBounds::new(loops, cands.iter().map(|c| (c.loop_id, c.uf)).collect());
        let group_sizes: Vec<usize> = cands.iter().map(|c| c.grid.grid_len()).collect();
        let mut found =
            picachu_runtime::try_parallel_find_first_grouped(&group_sizes, |g, i| {
                let c = &cands[g];
                if bounds.skips(g, c.grid.cell_ii(i)) {
                    return None;
                }
                let hit = c.grid.eval(&c.dfg, spec, mask, i);
                if let Some((ii, _)) = &hit {
                    bounds.offer(g, *ii);
                }
                hit
            })
            .map_err(|wp| {
                // identify the candidate owning the panicking flat cell
                let mut rest = wp.index;
                let mut g = 0;
                for (k, &sz) in group_sizes.iter().enumerate() {
                    if rest < sz {
                        g = k;
                        break;
                    }
                    rest -= sz;
                }
                PicachuError::Compile {
                    op: cands[g].op,
                    label: cands[g].label.clone(),
                    source: MapError::Worker { index: wp.index, message: wp.message },
                }
            })?;

        // assemble per-op results, replicating the serial selection exactly:
        // uf-order iteration, the `precedes` order (earlier uf wins ties),
        // last failing uf's error reported when nothing maps
        let mut out = Vec::with_capacity(ops.len());
        for (&op, op_loops) in ops.iter().zip(plan) {
            let mut compiled: Result<Vec<CompiledLoop>, PicachuError> = Ok(Vec::new());
            for lc in op_loops {
                let mut best: Option<(usize, CompiledLoop)> = None;
                let mut last_err = MapError::EmptyDfg;
                for (pos, (uf, slot)) in lc.slots.into_iter().enumerate() {
                    let mapped = match slot {
                        Slot::Viable(ci) => {
                            let c = &cands[ci];
                            c.grid.resolve(&c.dfg, spec, mask, found[ci].take())
                        }
                        Slot::Dead(e) => Err(e),
                    };
                    match mapped {
                        Ok(mapping) => {
                            let better = best.as_ref().is_none_or(|(b_pos, b)| {
                                precedes((mapping.ii, uf, pos), (b.mapping.ii, b.uf, *b_pos))
                            });
                            if better {
                                let label = lc.label.clone();
                                let kind = lc.kind;
                                best = Some((pos, CompiledLoop { label, kind, mapping, uf, vf }));
                            }
                        }
                        Err(e) => last_err = e,
                    }
                }
                match best.map(|(_, b)| b) {
                    Some(b) => {
                        if let Ok(v) = &mut compiled {
                            v.push(b);
                        }
                    }
                    None => {
                        compiled =
                            Err(PicachuError::Compile { op, label: lc.label, source: last_err });
                        break;
                    }
                }
            }
            out.push(compiled);
        }
        Ok(out)
    }

    /// [`CompileService::compile_batch`] for a single op, flattening the
    /// outer (worker-panic) and per-op error layers.
    fn compile_one(
        &self,
        config: &EngineConfig,
        op: NonlinearOp,
        spec: &CgraSpec,
        mask: &ResourceMask,
    ) -> Result<Vec<CompiledLoop>, PicachuError> {
        let mut results = self.compile_batch(config, std::slice::from_ref(&op), spec, mask)?;
        results.pop().unwrap_or(Err(PicachuError::Compile {
            op,
            label: String::new(),
            source: MapError::Internal("compile batch returned no result"),
        }))
    }

    /// Attempts an incremental repair of every loop of `op`'s cached healthy
    /// compile against the degraded `mask`: each loop keeps its II and its
    /// undisturbed placements ([`repair_mapping`]). All-or-nothing per op —
    /// if any loop resists repair at its healthy II, the op falls through to
    /// the full re-map rung rather than mixing repaired and re-mapped loops.
    fn try_repair_loops(
        &self,
        config: &EngineConfig,
        op: NonlinearOp,
        mask: &ResourceMask,
        healthy: &[CompiledLoop],
    ) -> Option<Vec<CompiledLoop>> {
        let mut out = Vec::with_capacity(healthy.len());
        for (i, l) in healthy.iter().enumerate() {
            let dfg = self.lowered_dfg(config, op, i, l.uf, l.vf);
            let seed = CompileService::loop_seed(config, i);
            let mapping = repair_mapping(&dfg, &self.spec, seed, mask, &l.mapping)?;
            out.push(CompiledLoop { mapping, ..l.clone() });
        }
        Some(out)
    }

    /// Reconstructs the exact lowered DFG the mapper saw for loop
    /// `loop_idx` of `op`: the kernel loop body after unrolling, pattern
    /// fusion and (when `vf > 1`) lane vectorization. The differential
    /// oracle replays this DFG on the cycle-level simulator against the
    /// analytical accounting; the compile kernel goes through the same
    /// method, so the two paths cannot drift.
    pub fn lowered_dfg(
        &self,
        config: &EngineConfig,
        op: NonlinearOp,
        loop_idx: usize,
        uf: usize,
        vf: usize,
    ) -> picachu_ir::dfg::Dfg {
        let kernel = kernel_for(op, config.taylor_terms);
        let mut dfg = fuse_patterns(&unroll(&kernel.loops[loop_idx].dfg, uf));
        if vf > 1 {
            dfg = vectorize(&dfg, vf).dfg;
        }
        dfg
    }

    /// The mapper seed used for loop `loop_idx` (derived from the config
    /// seed so that sibling loops explore independent placements).
    pub fn loop_seed(config: &EngineConfig, loop_idx: usize) -> u64 {
        config.seed ^ (loop_idx as u64) << 8
    }
}

/// The per-loop bound of one flat compile pass. For each kernel loop it
/// holds the best success any of the loop's candidates has found so far,
/// packed as `II << 32 | candidate` in one atomic (`NO_BOUND` before the
/// first success). Candidates are indexed by their group in the pass, which
/// lists a loop's candidates in unroll-portfolio order, so the index is also
/// the candidate's position in the loop's selection order.
///
/// Every access is `Relaxed`: the packed value is the whole state, and a
/// stale read only lets a dominated cell run, which costs time and never
/// changes a result.
struct LoopBounds {
    /// `(loop, unroll factor)` of every candidate.
    of: Vec<(usize, usize)>,
    best: Vec<AtomicU64>,
}

/// A loop's bound before any of its candidates has succeeded.
const NO_BOUND: u64 = u64::MAX;

impl LoopBounds {
    fn new(loops: usize, of: Vec<(usize, usize)>) -> LoopBounds {
        LoopBounds { of, best: (0..loops).map(|_| AtomicU64::new(NO_BOUND)).collect() }
    }

    /// Candidate `g` at II `ii`, as a [`precedes`] key.
    fn key(&self, (ii, g): (u32, usize)) -> (u32, usize, usize) {
        (ii, self.of[g].1, g)
    }

    /// Decodes a packed bound into `(II, candidate)`.
    fn unpack(packed: u64) -> Option<(u32, usize)> {
        (packed != NO_BOUND).then_some(((packed >> 32) as u32, (packed & 0xFFFF_FFFF) as usize))
    }

    /// Whether a cell of candidate `g` at II `ii` cannot be its loop's
    /// winner: a *different* candidate's success precedes it. A candidate is
    /// never skipped against its own success; its lowest-index cutoff already
    /// orders its cells.
    fn skips(&self, g: usize, ii: u32) -> bool {
        let best = LoopBounds::unpack(self.best[self.of[g].0].load(Ordering::Relaxed));
        best.is_some_and(|b| b.1 != g && precedes(self.key(b), self.key((ii, g))))
    }

    /// Records a success of candidate `g` at II `ii`, raising its loop's
    /// bound when the success precedes the current best (a CAS loop).
    fn offer(&self, g: usize, ii: u32) {
        let bound = &self.best[self.of[g].0];
        let _ = bound.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            let beats = LoopBounds::unpack(cur)
                .is_none_or(|b| precedes(self.key((ii, g)), self.key(b)));
            beats.then_some(u64::from(ii) << 32 | g as u64)
        });
    }
}

/// Whether unroll candidate `a` = `(ii, uf, position)` comes before `b` in a
/// loop's selection order: strictly lower per-element II `ii / (uf·vf)`,
/// compared exactly by cross-multiplication (the vector factor is common to a
/// loop's candidates and cancels), then the earlier position (the earlier
/// unroll factor) on a tie.
fn precedes(
    (a_ii, a_uf, a_pos): (u32, usize, usize),
    (b_ii, b_uf, b_pos): (u32, usize, usize),
) -> bool {
    let (a, b) = (u64::from(a_ii) * b_uf as u64, u64::from(b_ii) * a_uf as u64);
    a < b || (a == b && a_pos < b_pos)
}

/// Maps an operation to its kernel (public so the differential oracle can
/// interpret the same loop bodies the engine compiles).
pub fn kernel_for(op: NonlinearOp, terms: usize) -> klib::Kernel {
    match op {
        NonlinearOp::Softmax => klib::softmax_kernel(terms),
        NonlinearOp::Relu => klib::relu_kernel(),
        NonlinearOp::Gelu => klib::gelu_kernel(terms),
        NonlinearOp::Geglu => klib::geglu_kernel(terms),
        NonlinearOp::Silu => klib::silu_kernel(terms),
        NonlinearOp::Swiglu => klib::swiglu_kernel(terms),
        NonlinearOp::LayerNorm => klib::layernorm_kernel(),
        NonlinearOp::RmsNorm => klib::rmsnorm_kernel(),
        NonlinearOp::Rope => klib::rope_kernel(terms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service on `spec` with a private cache.
    fn service_on(spec: CgraSpec) -> CompileService {
        CompileService::new(spec, Arc::new(CompileCache::new()))
    }

    fn service() -> (CompileService, EngineConfig) {
        let config = EngineConfig::default();
        (service_on(CgraSpec::picachu(config.cgra_rows, config.cgra_cols)), config)
    }

    #[test]
    fn warm_is_idempotent_and_matches_serial_compile() {
        let (mut warm, config) = service();
        warm.warm(&config, &[NonlinearOp::Gelu, NonlinearOp::Gelu, NonlinearOp::Softmax])
            .expect("healthy warm");
        let (mut cold, _) = service();
        let serial = cold.try_compile_op(&config, NonlinearOp::Softmax).expect("compiles");
        let warmed = warm.loops(NonlinearOp::Softmax);
        assert_eq!(serial.len(), warmed.len());
        for (a, b) in serial.iter().zip(warmed.iter()) {
            assert_eq!(a.mapping.ii, b.mapping.ii, "{}: warm must equal serial", a.label);
            assert_eq!((a.uf, a.vf), (b.uf, b.vf));
        }
        // second warm is a no-op
        warm.warm(&config, &[NonlinearOp::Softmax]).expect("idempotent");
    }

    /// The selection without the per-loop bound: every `(loop, uf)`
    /// candidate's grid scanned serially to its first success and resolved,
    /// then the strictly lowest per-element II wins (the earlier uf on a
    /// tie); the last failing uf's error when nothing maps.
    fn compile_unbounded(
        svc: &CompileService,
        config: &EngineConfig,
        op: NonlinearOp,
        spec: &CgraSpec,
        mask: &ResourceMask,
    ) -> Result<Vec<CompiledLoop>, PicachuError> {
        let vf = config.format.vector_factor();
        let mut out = Vec::new();
        for (i, l) in kernel_for(op, config.taylor_terms).loops.iter().enumerate() {
            let kind = match l.class {
                klib::LoopClass::Reduction => LoopKind::Reduction,
                klib::LoopClass::ElementWise => LoopKind::ElementWise,
            };
            let (mut best, mut last_err): (Option<CompiledLoop>, _) = (None, MapError::EmptyDfg);
            for &uf in &config.unroll_candidates {
                let dfg = svc.lowered_dfg(config, op, i, uf, vf);
                let seed = CompileService::loop_seed(config, i);
                let mapped = SearchGrid::prepare(&dfg, spec, mask, seed, None).and_then(|grid| {
                    let found = (0..grid.grid_len())
                        .find_map(|idx| grid.eval(&dfg, spec, mask, idx).map(|hit| (idx, hit)));
                    grid.resolve(&dfg, spec, mask, found)
                });
                match mapped {
                    Ok(mapping) => {
                        let per_elem = mapping.ii as f64 / (uf * vf) as f64;
                        if best.as_ref().is_none_or(|b| {
                            per_elem < b.mapping.ii as f64 / b.elements_per_ii() as f64
                        }) {
                            let label = l.label.clone();
                            best = Some(CompiledLoop { label, kind, mapping, uf, vf });
                        }
                    }
                    Err(e) => last_err = e,
                }
            }
            let label = l.label.clone();
            out.push(best.ok_or(PicachuError::Compile { op, label, source: last_err })?);
        }
        Ok(out)
    }

    #[test]
    fn loop_bound_selects_what_the_unbounded_scan_selects() {
        let het = |cgra_rows, cgra_cols| EngineConfig {
            cgra_rows,
            cgra_cols,
            ..EngineConfig::default()
        };
        let int16 = EngineConfig { format: picachu_num::DataFormat::Int16, ..het(4, 4) };
        let uni = EngineConfig { fabric: FabricKind::Universal, ..het(4, 4) };
        let dead_tile = FaultPlan::dead_tile(5);
        let dead_mix = FaultPlan::dead_link(0, 1).with_dead_tile(8);
        // (config, fabric, faults); the homogeneous baseline has no fused
        // units, so nothing maps there and the errors must match instead
        let cases = [
            (het(4, 4), CgraSpec::picachu(4, 4), FaultPlan::none()),
            (int16, CgraSpec::picachu(4, 4), FaultPlan::none()),
            (uni, CgraSpec::universal(4, 4), FaultPlan::none()),
            (het(8, 8), CgraSpec::picachu(8, 8), FaultPlan::none()),
            (het(3, 3), CgraSpec::picachu(3, 3), dead_tile),
            (het(3, 3), CgraSpec::picachu(3, 3), dead_mix),
            (het(4, 4), CgraSpec::homogeneous(4, 4), FaultPlan::none()),
        ];
        let mut mapped = 0;
        for (config, spec, plan) in cases {
            let mask = ResourceMask::degraded(
                &spec,
                plan.dead_tiles.iter().copied(),
                plan.dead_links.iter().copied(),
            );
            let svc = service_on(spec.clone());
            let reference: Vec<_> = NonlinearOp::ALL
                .iter()
                .map(|&op| compile_unbounded(&svc, &config, op, &spec, &mask))
                .collect();
            mapped += reference.iter().filter(|r| r.is_ok()).count();
            for threads in [1, 2] {
                picachu_runtime::set_thread_override(Some(threads));
                let batch = svc.compile_batch(&config, &NonlinearOp::ALL, &spec, &mask);
                picachu_runtime::set_thread_override(None);
                let batch = batch.expect("no search worker panics");
                for ((op, want), got) in NonlinearOp::ALL.iter().zip(&reference).zip(&batch) {
                    assert_eq!(
                        got, want,
                        "{op:?} on {}x{} {:?} at {threads} threads",
                        spec.rows, spec.cols, config.format
                    );
                }
            }
        }
        // the homogeneous case is the only one where nothing maps
        assert!(mapped >= 5 * NonlinearOp::ALL.len(), "only {mapped} ops mapped");
    }

    #[test]
    fn precedes_orders_by_exact_per_element_ii_then_position() {
        // 3/2 < 2/1, in both directions
        assert!(precedes((3, 2, 1), (2, 1, 0)));
        assert!(!precedes((2, 1, 0), (3, 2, 1)));
        // 4/4 == 2/2: the earlier position wins, never the later one
        assert!(precedes((2, 2, 1), (4, 4, 2)));
        assert!(!precedes((4, 4, 2), (2, 2, 1)));
        assert!(!precedes((2, 2, 1), (2, 2, 1)));
    }

    #[test]
    fn loop_bound_skips_only_cells_another_candidate_beats() {
        // loop 0 has candidates uf 1, 2, 4 (groups 0–2); loop 1 has uf 1
        let b = LoopBounds::new(2, vec![(0, 1), (0, 2), (0, 4), (1, 1)]);
        assert!(!b.skips(2, 40), "no success yet, no bound");
        b.offer(1, 4); // uf 2 maps at II 4: 2 cycles per element
        assert!(!b.skips(1, 9), "never skipped against its own success");
        assert!(!b.skips(0, 2), "uf 1 at II 2 ties and comes earlier");
        assert!(b.skips(0, 3));
        assert!(b.skips(2, 8), "uf 4 at II 8 ties but comes later");
        assert!(!b.skips(2, 7));
        assert!(!b.skips(3, 40), "another loop's bound is separate");
        b.offer(2, 9); // worse than the bound: ignored
        assert!(b.skips(2, 8));
        b.offer(0, 2); // ties and comes earlier: raises the bound
        assert!(b.skips(1, 4));
        assert!(!b.skips(0, 3), "uf 1 now holds the bound itself");
    }

    #[test]
    fn loop_seed_varies_by_loop_index() {
        let config = EngineConfig::default();
        assert_ne!(CompileService::loop_seed(&config, 0), CompileService::loop_seed(&config, 1));
    }

    #[test]
    fn degraded_compile_takes_the_incremental_rung() {
        // an 8×8 fabric: at paper-scale 4×4 the kernels map at their
        // resource-bound minimum II, so losing a tile usually makes the
        // retained II infeasible and the repair rung correctly passes; a
        // bigger fabric leaves the slack incremental repair exists for
        let config = EngineConfig {
            seed: 0x12C0_0001,
            cgra_rows: 8,
            cgra_cols: 8,
            ..EngineConfig::default()
        };
        let mut svc = service_on(CgraSpec::picachu(config.cgra_rows, config.cgra_cols));
        let mut repaired_any = false;
        for op in [NonlinearOp::Relu, NonlinearOp::Silu, NonlinearOp::Softmax] {
            let healthy = svc.try_compile_op(&config, op).expect("healthy compile");
            // kill the tile hosting the first node of the first loop, so the
            // healthy mapping is genuinely disturbed
            let dead = healthy[0].mapping.placements[0].tile;
            let plan = picachu_faults::FaultPlan::dead_tile(dead);
            let dc = svc.compile_op_degraded(&config, op, &plan).expect("degraded compile");
            if dc.fallback != FallbackLevel::Incremental {
                continue; // repair legitimately gave up; the ladder moved on
            }
            repaired_any = true;
            for (h, d) in healthy.iter().zip(dc.loops.iter()) {
                assert_eq!(h.mapping.ii, d.mapping.ii, "{}: repair must retain the II", d.label);
                assert_eq!((h.uf, h.vf), (d.uf, d.vf));
            }
            for l in dc.loops.iter() {
                for p in &l.mapping.placements {
                    assert_ne!(p.tile, dead, "{}: node left on the dead tile", l.label);
                }
            }
            // the repaired entry is cached under its own (incremental) key:
            // a repeat request serves it without touching the healthy rungs
            let again = svc.compile_op_degraded(&config, op, &plan).expect("cached repeat");
            assert_eq!(again.fallback, FallbackLevel::Incremental);
            assert_eq!(again.loops.len(), dc.loops.len());
        }
        assert!(repaired_any, "no op took the incremental rung");
    }

    #[test]
    fn degraded_compile_ignores_what_was_compiled_before() {
        // each service has a private cache, so the first call below runs
        // without the healthy kernels compiled
        let config = EngineConfig { seed: 0x12C0_0003, ..EngineConfig::default() };
        let spec = CgraSpec::picachu(config.cgra_rows, config.cgra_cols);
        let (op, plan) = (NonlinearOp::Softmax, picachu_faults::FaultPlan::dead_tile(5));
        let unprimed = service_on(spec.clone())
            .compile_op_degraded(&config, op, &plan)
            .expect("unprimed degraded compile");
        let mut primed = service_on(spec);
        primed.try_compile_op(&config, op).expect("healthy compile");
        let primed = primed.compile_op_degraded(&config, op, &plan).expect("primed compile");
        assert_eq!(unprimed.fallback, primed.fallback);
        assert_eq!(unprimed.ii_inflation.to_bits(), primed.ii_inflation.to_bits());
        assert_eq!(unprimed.loops, primed.loops);
    }

    #[test]
    fn a_repeat_ladder_walk_is_answered_without_a_lookup() {
        // on the default 4×4 fabric LayerNorm's repair rung fails under
        // dead_tile(5), and a failed rung publishes nothing to the cache
        let (mut svc, config) = service();
        let (op, plan) = (NonlinearOp::LayerNorm, picachu_faults::FaultPlan::dead_tile(5));
        let first = svc.compile_op_degraded(&config, op, &plan).expect("degraded compile");
        assert_ne!(first.fallback, FallbackLevel::Incremental, "the repair rung must fail here");
        let stats = svc.cache.stats();
        let again = svc.compile_op_degraded(&config, op, &plan).expect("repeat");
        assert_eq!(again.fallback, first.fallback);
        assert_eq!(again.loops, first.loops);
        assert_eq!(again.ii_inflation.to_bits(), first.ii_inflation.to_bits());
        assert_eq!(svc.cache.stats(), stats, "the repeat walked a rung");
    }

    #[test]
    fn a_failing_warm_keeps_every_sibling_answer() {
        // on a 1×3 fabric at unroll factor 16 RoPE fails to map and ReLU maps
        let config = EngineConfig {
            cgra_rows: 1,
            cgra_cols: 3,
            unroll_candidates: vec![16],
            ..EngineConfig::default()
        };
        let mut svc = service_on(CgraSpec::picachu(1, 3));
        let (failing, mapping) = (NonlinearOp::Rope, NonlinearOp::Relu);
        let err = svc.warm(&config, &[failing, mapping]).expect_err("RoPE must fail to map");
        assert!(matches!(err, PicachuError::Compile { op: NonlinearOp::Rope, .. }), "{err}");
        let stats = svc.cache.stats();
        svc.try_compile_op(&config, mapping).expect("ReLU maps");
        assert_eq!(svc.cache.stats(), stats, "the failing warm dropped ReLU's compile");
        let again = svc.try_compile_op(&config, failing).expect_err("RoPE still fails");
        assert_eq!(again, err, "a repeat must return the remembered error");
        assert_eq!(svc.cache.stats(), stats, "the failed compile ran again");
    }

    #[test]
    fn the_healthy_compile_is_the_empty_plan_answer() {
        let (mut svc, config) = service();
        let op = NonlinearOp::Softmax;
        let healthy = svc.compile_op_degraded(&config, op, &FaultPlan::none()).expect("healthy");
        let loops = svc.try_compile_op(&config, op).expect("compiles");
        assert!(Arc::ptr_eq(&healthy.loops, &loops), "two healthy answers for one op");
        let rung = |dc: &DegradedCompile| (dc.fallback, dc.ii_inflation.to_bits(), dc.alive_tiles);
        assert_eq!(rung(&healthy), (FallbackLevel::Remapped, 1.0f64.to_bits(), 16));
        let stats = svc.cache.stats();
        svc.compile_op_degraded(&config, op, &FaultPlan::none()).expect("repeat");
        svc.try_compile_op(&config, op).expect("repeat");
        assert_eq!(svc.cache.stats(), stats, "a repeat healthy request looked up the cache");
        // a dead tile off the fabric leaves the mask full, yet it is a fault
        // set of its own: the ladder runs, and its repair rung answers
        let stray = svc.compile_op_degraded(&config, op, &FaultPlan::dead_tile(99)).expect("stray");
        assert_eq!(rung(&stray), (FallbackLevel::Incremental, 1.0f64.to_bits(), 16));
        let mask = ResourceMask::degraded(svc.spec(), [99], []);
        let repaired = svc.try_repair_loops(&config, op, &mask, &loops).expect("repairs");
        assert_eq!(*stray.loops, repaired);
        assert_ne!(stray.loops, loops, "the stray plan was answered as healthy");
    }

    #[test]
    fn incremental_and_full_remap_entries_never_alias() {
        let config = EngineConfig { seed: 0x12C0_0002, ..EngineConfig::default() };
        let svc = service_on(CgraSpec::picachu(config.cgra_rows, config.cgra_cols));
        let plan = picachu_faults::FaultPlan::dead_tile(3);
        let full = svc.degraded_key(&config, NonlinearOp::Relu, &plan, false);
        let inc = CompileKey { incremental: true, ..full.clone() };
        assert_ne!(full, inc);
    }
}
