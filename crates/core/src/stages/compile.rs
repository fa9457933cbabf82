//! Stage 1 — the compile service.
//!
//! Turns nonlinear operations into CGRA mappings: builds the kernel, then
//! per loop picks the unroll factor minimizing the per-element II (and the
//! INT16 vector factor when the format selects it). All compilation flows
//! through the process-wide [`compile_cache`], with an engine-local view on
//! top so the hot path never takes the cache lock twice for the same op.
//! Under faults the service walks the DESIGN §7 degradation ladder:
//! incremental repair → re-map → cached healthy mapping → universal-fabric
//! re-map → reject.
//!
//! Cold compilation is one **flat** parallel pass: the full
//! `(op × loop × unroll × II × attempt)` search space goes to
//! `try_parallel_find_first_grouped` as a single deterministic work queue
//! (DESIGN §10), never a pool-inside-a-pool.

use crate::compile_cache::{self, CompileKey};
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
use std::sync::Arc;
use std::time::Duration;

/// How far down the degradation ladder a faulted compile had to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackLevel {
    /// The kernel incrementally repaired its cached healthy mapping: the II
    /// and every undisturbed placement were retained, only the sub-DFG the
    /// faults touched was re-placed. The cheapest genuine re-map.
    Incremental,
    /// The kernel re-mapped around the faults on the engine's own fabric.
    Remapped,
    /// Re-mapping failed (typically a deadline) but the fabric is intact, so
    /// the cached healthy mapping is served. Never used on a degraded
    /// fabric: a healthy mapping may place work on dead resources.
    Cached,
    /// The kernel only mapped on the all-universal fallback fabric (every PE
    /// supports every opcode — lower ResMII pressure around dead tiles).
    Universal,
}

impl fmt::Display for FallbackLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackLevel::Incremental => write!(f, "incrementally repaired"),
            FallbackLevel::Remapped => write!(f, "re-mapped"),
            FallbackLevel::Cached => write!(f, "cached fallback"),
            FallbackLevel::Universal => write!(f, "universal-fabric fallback"),
        }
    }
}

/// Result of compiling an op for a degraded fabric: the loops plus how
/// degraded the service is.
#[derive(Debug, Clone)]
pub struct DegradedCompile {
    /// The compiled loops (from the process cache when warm).
    pub loops: Arc<Vec<CompiledLoop>>,
    /// Which rung of the degradation ladder produced them.
    pub fallback: FallbackLevel,
    /// Σ degraded II / Σ healthy II across the op's loops — reported, not
    /// asserted (detours usually inflate II, but a smaller live portfolio
    /// can occasionally luck into a better placement). `1.0` when no
    /// healthy baseline exists to compare against.
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

/// The compile stage: owns the fabric specification and the engine-local
/// view of the process-wide compile cache.
#[derive(Debug)]
pub struct CompileService {
    spec: CgraSpec,
    /// Engine-local view of the process-wide [`compile_cache`]: one lookup
    /// per op after the first, no lock traffic on the hot path. `pub(crate)`
    /// so the engine can shadow it with degraded mappings during a faulted
    /// dispatch (and tests can transplant warm views).
    pub(crate) cache: HashMap<NonlinearOp, Arc<Vec<CompiledLoop>>>,
}

impl CompileService {
    /// A service compiling onto `spec` (kernels compile lazily on first use).
    pub fn new(spec: CgraSpec) -> CompileService {
        CompileService { spec, cache: HashMap::new() }
    }

    /// The CGRA fabric specification in use.
    pub fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    /// The locally-cached loops for `op`.
    ///
    /// # Panics
    /// Panics if `op` was never compiled through this service — callers go
    /// through [`CompileService::try_compile_op`] first.
    pub(crate) fn loops(&self, op: NonlinearOp) -> &[CompiledLoop] {
        &self.cache[&op]
    }

    /// Read-only cache probe: the locally-cached loops for `op`, falling
    /// back to the process-wide [`compile_cache`] entry under this config's
    /// key. `None` when the kernel has never been compiled anywhere in the
    /// process — the cold case the engine's capacity hint
    /// ([`Accelerator::estimate_trace`](picachu_backend::Accelerator))
    /// estimates analytically instead.
    pub(crate) fn peek(
        &self,
        config: &EngineConfig,
        op: NonlinearOp,
    ) -> Option<Arc<Vec<CompiledLoop>>> {
        if let Some(hit) = self.cache.get(&op) {
            return Some(hit.clone());
        }
        compile_cache::lookup(&self.compile_key(config, op))
    }

    /// The non-panicking compile path: compiles (or returns cached) loops,
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
        if let Some(hit) = self.cache.get(&op) {
            return Ok(hit.clone());
        }
        let key = self.compile_key(config, op);
        let compiled = match compile_cache::lookup(&key) {
            Some(hit) => hit,
            None => {
                let full = ResourceMask::full(&self.spec);
                let loops = self.compile_one(config, op, &self.spec, &full, None)?;
                compile_cache::publish(key, loops)
            }
        };
        self.cache.insert(op, compiled.clone());
        Ok(compiled)
    }

    /// Compiles every distinct operation in `ops`, submitting the **entire**
    /// `(op × loop × unroll × II × attempt)` search space of the true cache
    /// misses as one flat grouped pass on the [`picachu_runtime`] pool (see
    /// [`CompileService::compile_batch`]). Mapping is deterministic per
    /// `(config, op)`, so the cache ends bit-identical to a serial warm —
    /// only wall-clock changes. The `Accelerator` dispatch path calls this
    /// before its serial trace walk so a cold engine doesn't compile on the
    /// walk.
    ///
    /// # Errors
    /// [`PicachuError::Compile`] for the first (in `ops` order) operation
    /// whose kernel fails to map.
    pub fn warm(
        &mut self,
        config: &EngineConfig,
        ops: &[NonlinearOp],
    ) -> Result<(), PicachuError> {
        let mut misses: Vec<NonlinearOp> = Vec::new();
        for &op in ops {
            if self.cache.contains_key(&op) || misses.contains(&op) {
                continue;
            }
            // process-cache hits are cheap lookups; only real mapping work
            // goes to the pool
            if let Some(hit) = compile_cache::lookup(&self.compile_key(config, op)) {
                self.cache.insert(op, hit);
            } else {
                misses.push(op);
            }
        }
        if misses.is_empty() {
            return Ok(());
        }
        let full = ResourceMask::full(&self.spec);
        let compiled = self.compile_batch(config, &misses, &self.spec, &full, None)?;
        for (&op, loops) in misses.iter().zip(compiled) {
            let arc = compile_cache::publish(self.compile_key(config, op), loops?);
            self.cache.insert(op, arc);
        }
        Ok(())
    }

    /// Compiles `op` for a faulted fabric, walking the degradation ladder
    /// (DESIGN §7): **incremental repair** of the cached healthy mapping
    /// (retained II, only the disturbed sub-DFG re-placed — skipped when no
    /// healthy mapping is on hand) → **re-map** around the dead resources on
    /// the engine's own fabric → **cached** healthy mapping (only when the
    /// fabric is intact and the failure was a deadline, never on real
    /// topology faults) → **universal-fabric** re-map (every PE supports
    /// every opcode) → **reject** with the primary error. Each rung is
    /// deadline-bounded by
    /// [`EngineConfig::compile_deadline_ms`] and every successful compile is
    /// published to the process cache under its exact fault set, so repeated
    /// requests against the same degraded part hit the cache.
    ///
    /// # Errors
    /// [`PicachuError::Compile`] when every rung fails — the error carries
    /// the mapper's diagnosis from the first (re-map) rung, which is the
    /// informative one.
    pub fn compile_op_degraded(
        &mut self,
        config: &EngineConfig,
        op: NonlinearOp,
        plan: &FaultPlan,
    ) -> Result<DegradedCompile, PicachuError> {
        let deadline = config.compile_deadline_ms.map(Duration::from_millis);
        let mask = ResourceMask::degraded(
            &self.spec,
            plan.dead_tiles.iter().copied(),
            plan.dead_links.iter().copied(),
        );
        let alive = mask.alive_count();
        // intact fabric, no deadline pressure: the healthy compile *is* the
        // degraded compile, bit-identically
        if plan.fabric_intact() && deadline.is_none() {
            let loops = self.try_compile_op(config, op)?;
            return Ok(DegradedCompile {
                loops,
                fallback: FallbackLevel::Remapped,
                ii_inflation: 1.0,
                alive_tiles: alive,
            });
        }
        // healthy baseline for II-inflation reporting — cache-only, so the
        // deadline-bounded degraded path never grows an unbounded healthy
        // compile (inflation reads 1.0 until something compiled healthy)
        let healthy_ii: Option<u64> = self
            .cache
            .get(&op)
            .cloned()
            .or_else(|| compile_cache::lookup(&self.compile_key(config, op)))
            .map(|loops| loops.iter().map(|l| l.mapping.ii as u64).sum());
        // rung 1: incremental repair — retain the healthy II and every
        // placement the faults did not disturb, re-placing only the affected
        // sub-DFG. Needs a healthy mapping on hand (engine-local or process
        // cache; this rung never *computes* one), a genuinely degraded
        // fabric (on an intact fabric the healthy mapping needs no repair),
        // and the config's repair eligibility (`incremental_repair: false`
        // deployments keep no mapping resident, so every fault is a full
        // re-map — a DSE compiler-strategy knob).
        if config.incremental_repair && !plan.fabric_intact() {
            let ikey =
                CompileKey { incremental: true, ..self.degraded_key(config, op, plan, false) };
            let repaired = match compile_cache::lookup(&ikey) {
                Some(hit) => Some(hit),
                None => self
                    .cache
                    .get(&op)
                    .cloned()
                    .or_else(|| compile_cache::lookup(&self.compile_key(config, op)))
                    .and_then(|healthy| self.try_repair_loops(config, op, &mask, &healthy))
                    .map(|loops| compile_cache::publish(ikey, loops)),
            };
            if let Some(loops) = repaired {
                let ii_inflation = CompileService::ii_inflation(healthy_ii, &loops);
                return Ok(DegradedCompile {
                    loops,
                    fallback: FallbackLevel::Incremental,
                    ii_inflation,
                    alive_tiles: alive,
                });
            }
        }
        // rung 2: full re-map around the faults on the engine's own fabric
        let key = self.degraded_key(config, op, plan, false);
        let primary = match compile_cache::lookup(&key) {
            Some(hit) => Ok(hit),
            None => self
                .compile_one(config, op, &self.spec, &mask, deadline)
                .map(|loops| compile_cache::publish(key, loops)),
        };
        let primary_err = match primary {
            Ok(loops) => {
                let ii_inflation = CompileService::ii_inflation(healthy_ii, &loops);
                return Ok(DegradedCompile {
                    loops,
                    fallback: FallbackLevel::Remapped,
                    ii_inflation,
                    alive_tiles: alive,
                });
            }
            Err(e) => e,
        };
        // rung 3: last-known-good mapping — legal only while the fabric is
        // intact (a healthy mapping may use any tile or link). The engine's
        // local view survives process-cache clears, so a deadline miss on
        // re-validation still serves.
        if plan.fabric_intact() {
            if let Some(hit) = self
                .cache
                .get(&op)
                .cloned()
                .or_else(|| compile_cache::lookup(&self.compile_key(config, op)))
            {
                return Ok(DegradedCompile {
                    loops: hit,
                    fallback: FallbackLevel::Cached,
                    ii_inflation: 1.0,
                    alive_tiles: alive,
                });
            }
        }
        // rung 4: the all-universal fallback fabric, same fault set
        let uspec = CgraSpec::universal(config.cgra_rows, config.cgra_cols);
        let umask = ResourceMask::degraded(
            &uspec,
            plan.dead_tiles.iter().copied(),
            plan.dead_links.iter().copied(),
        );
        let ukey = self.degraded_key(config, op, plan, true);
        let fallback = match compile_cache::lookup(&ukey) {
            Some(hit) => Ok(hit),
            None => self
                .compile_one(config, op, &uspec, &umask, deadline)
                .map(|loops| compile_cache::publish(ukey, loops)),
        };
        match fallback {
            Ok(loops) => {
                let ii_inflation = CompileService::ii_inflation(healthy_ii, &loops);
                Ok(DegradedCompile {
                    loops,
                    fallback: FallbackLevel::Universal,
                    ii_inflation,
                    alive_tiles: umask.alive_count(),
                })
            }
            // rung 5: reject, with the informative (own-fabric) diagnosis
            Err(_) => Err(primary_err),
        }
    }

    fn ii_inflation(healthy_ii: Option<u64>, loops: &[CompiledLoop]) -> f64 {
        let degraded: u64 = loops.iter().map(|l| l.mapping.ii as u64).sum();
        match healthy_ii {
            Some(h) if h > 0 => degraded as f64 / h as f64,
            _ => 1.0,
        }
    }

    /// The process-wide cache key for this configuration's compilation of
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
    /// healthy key already carries `universal: true`, and the rung-4
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
    /// per `(op, loop, unroll)` candidate; each group independently keeps
    /// its lowest-index (= lowest-II, earliest-attempt) success and
    /// early-kills the rest of its cells, so the result is bit-identical to
    /// the serial scan at any thread count. Because the structure is flat —
    /// no `parallel_map` over ops wrapping a `find_first` over cells — the
    /// modulo-scheduling search parallelizes even on the cold path, which
    /// the old nested shape silently serialized.
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
        deadline: Option<Duration>,
    ) -> Result<Vec<Result<Vec<CompiledLoop>, PicachuError>>, PicachuError> {
        /// One viable `(op, loop, unroll)` candidate: a lowering with its
        /// prepared portfolio grid, one group of the flat pass.
        struct Cand {
            op: NonlinearOp,
            label: String,
            dfg: Dfg,
            grid: SearchGrid,
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
                    let slot = match SearchGrid::prepare(&dfg, spec, mask, seed, deadline) {
                        Ok(grid) => {
                            cands.push(Cand { op, label: l.label.clone(), dfg, grid });
                            Slot::Viable(cands.len() - 1)
                        }
                        Err(e) => Slot::Dead(e),
                    };
                    slots.push((uf, slot));
                }
                op_loops.push(LoopSlots { label: l.label.clone(), kind, slots });
            }
            plan.push(op_loops);
        }

        // the flat pass: group g = candidate g, cell i = grid cell i
        let group_sizes: Vec<usize> = cands.iter().map(|c| c.grid.grid_len()).collect();
        let mut found =
            picachu_runtime::try_parallel_find_first_grouped(&group_sizes, |g, i| {
                let c = &cands[g];
                c.grid.eval(&c.dfg, spec, mask, i)
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
        // uf-order iteration, strict `<` on per-element II (earlier uf wins
        // ties), last failing uf's error reported when nothing maps
        let mut out = Vec::with_capacity(ops.len());
        for (&op, op_loops) in ops.iter().zip(plan) {
            let mut compiled: Result<Vec<CompiledLoop>, PicachuError> = Ok(Vec::new());
            for lc in op_loops {
                let mut best: Option<CompiledLoop> = None;
                let mut last_err = MapError::EmptyDfg;
                for (uf, slot) in lc.slots {
                    let mapped = match slot {
                        Slot::Viable(ci) => {
                            let c = &cands[ci];
                            c.grid.resolve(&c.dfg, spec, mask, found[ci].take())
                        }
                        Slot::Dead(e) => Err(e),
                    };
                    match mapped {
                        Ok(mapping) => {
                            let per_elem = mapping.ii as f64 / (uf * vf) as f64;
                            let better = match &best {
                                None => true,
                                Some(b) => {
                                    per_elem
                                        < b.mapping.ii as f64 / b.elements_per_ii() as f64
                                }
                            };
                            if better {
                                best = Some(CompiledLoop {
                                    label: lc.label.clone(),
                                    kind: lc.kind,
                                    mapping,
                                    uf,
                                    vf,
                                });
                            }
                        }
                        Err(e) => last_err = e,
                    }
                }
                match best {
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
        deadline: Option<Duration>,
    ) -> Result<Vec<CompiledLoop>, PicachuError> {
        let mut results =
            self.compile_batch(config, std::slice::from_ref(&op), spec, mask, deadline)?;
        match results.pop() {
            Some(r) => r,
            None => Err(PicachuError::Compile {
                op,
                label: String::new(),
                source: MapError::Internal("compile batch returned no result"),
            }),
        }
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

    fn service() -> (CompileService, EngineConfig) {
        let config = EngineConfig::default();
        (CompileService::new(CgraSpec::picachu(config.cgra_rows, config.cgra_cols)), config)
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
        for (a, b) in serial.iter().zip(warmed) {
            assert_eq!(a.mapping.ii, b.mapping.ii, "{}: warm must equal serial", a.label);
            assert_eq!((a.uf, a.vf), (b.uf, b.vf));
        }
        // second warm is a no-op
        warm.warm(&config, &[NonlinearOp::Softmax]).expect("idempotent");
    }

    #[test]
    fn loop_seed_varies_by_loop_index() {
        let config = EngineConfig::default();
        assert_ne!(CompileService::loop_seed(&config, 0), CompileService::loop_seed(&config, 1));
    }

    #[test]
    fn degraded_compile_takes_the_incremental_rung() {
        // a seed unique to this test keeps the shared process cache hermetic
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
        let mut svc =
            CompileService::new(CgraSpec::picachu(config.cgra_rows, config.cgra_cols));
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
    fn incremental_and_full_remap_entries_never_alias() {
        let config = EngineConfig { seed: 0x12C0_0002, ..EngineConfig::default() };
        let svc = CompileService::new(CgraSpec::picachu(config.cgra_rows, config.cgra_cols));
        let plan = picachu_faults::FaultPlan::dead_tile(3);
        let full = svc.degraded_key(&config, NonlinearOp::Relu, &plan, false);
        let inc = CompileKey { incremental: true, ..full.clone() };
        assert_ne!(full, inc);
    }
}
