//! Modulo-scheduling mapper onto the CGRA's Modulo Routing Resource Graph
//! (§4.3 "DFG Mapping"), structured as a staged P&R pipeline.
//!
//! The mapper implements the paper's heuristic optimization: starting from
//! the lower bound `MII = max(RecMII, ResMII)`, it attempts randomized
//! placement of the DFG onto the time-extended fabric (tiles × II slots),
//! escalating the II on persistent failure — the iterative modulo-scheduling
//! discipline. The restarts form a deterministic portfolio: every
//! `(II, attempt)` cell derives its own RNG stream, so the search fans out
//! across the `picachu-runtime` thread pool and still returns the exact
//! mapping the serial grid scan would.
//!
//! Since the Place→Route→Fold refactor the work is split into passes:
//!
//! * **Place** ([`place`]) — assigns every node a (tile, time). Paper-scale
//!   fabrics (≤ [`ANNEAL_TILE_THRESHOLD`] tiles) take the historical greedy
//!   engine, bit-for-bit; larger fabrics take seeded simulated annealing
//!   over tile assignments (wirelength + congestion cost) followed by
//!   modulo list scheduling on the chosen tiles.
//! * **Route** ([`route`]) — congestion-aware routing with per-directed-link
//!   channel capacities ([`CHANNEL_CAP`]) and PathFinder-style
//!   rip-up-and-retry. On the annealed path it is the acceptance gate: a
//!   placement only stands if its routes are congestion-free.
//! * **Fold** ([`fold`]) — register folding of single-fanout pass-through
//!   hops; folded hops consume no link channels.
//! * **Report** ([`report`]) — a [`PnrReport`] (achieved II, area, channel
//!   utilization, critical path) derivable for any mapping, kept *outside*
//!   [`Mapping`] so equality-anchored caches and goldens never move.
//!
//! Placement respects, on either engine:
//!
//! * **heterogeneous operation support** — a node may only occupy a tile
//!   whose class implements its opcode (BaT/BrT/CoT capabilities);
//! * **memory-access permissions** — loads/stores only on tiles with Shared
//!   Buffer ports;
//! * **compute-slot exclusivity** — one operation per (tile, `time mod II`);
//! * **mesh routing** — operands travel one hop per cycle; the greedy engine
//!   charges the legacy per-tile pass-through budget on canonical paths,
//!   the annealed engine defers to the Route pass's per-link channels;
//! * **recurrences** — a loop-carried edge of distance `d` must satisfy
//!   `t_use + d·II ≥ t_def + latency + hops`.

pub mod mask;
mod fold;
mod place;
mod report;
mod route;

pub use mask::ResourceMask;
pub use report::{pnr_report, PnrReport};
pub use route::{route_mapping, RoutedEdge, RouteSet, CHANNEL_CAP};

use crate::arch::CgraSpec;
use picachu_ir::dfg::Dfg;
use picachu_ir::opcode::Opcode;
use picachu_testkit::{splitmix64, TestRng};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Routing capacity per (tile, slot) in the greedy engine: how many
/// pass-through operands a tile's crossbar can forward per cycle in addition
/// to its own computation. (The Route pass's per-link model supersedes this
/// on the annealed path; the SA cost function still uses it as its
/// congestion estimate.)
pub(crate) const ROUTE_CAP: u32 = 2;
/// Randomized restarts per candidate II.
const ATTEMPTS_PER_II: usize = 30;
/// How far beyond MII the search may go before giving up.
const II_SLACK: u32 = 40;
/// Fabrics with more tiles than this take the annealed Place→Route pipeline
/// under [`PnrMode::Auto`]; at or below it (every paper-scale geometry: 4×4,
/// 8×8) the greedy fast path runs and mappings stay bit-identical to the
/// pre-pipeline mapper.
pub const ANNEAL_TILE_THRESHOLD: usize = 64;

/// Which placement engine the portfolio runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PnrMode {
    /// Greedy at paper scale, annealed above [`ANNEAL_TILE_THRESHOLD`].
    #[default]
    Auto,
    /// Force the historical greedy engine regardless of fabric size.
    Greedy,
    /// Force the annealed Place→Route pipeline regardless of fabric size.
    Annealed,
}

/// Where and when one DFG node executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The DFG node.
    pub node: picachu_ir::dfg::NodeId,
    /// Tile index (row-major).
    pub tile: usize,
    /// Absolute schedule time; the node occupies slot `time % II`.
    pub time: u32,
}

/// A successful mapping of a DFG onto a CGRA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Per-node placements, indexed by node id.
    pub placements: Vec<Placement>,
    /// Schedule length (prologue depth): cycles until the first iteration
    /// completes.
    pub schedule_len: u32,
}

impl Mapping {
    /// Total cycles to execute `iterations` loop iterations in steady state:
    /// `schedule_len + (iterations − 1) · II`.
    pub fn cycles_for(&self, iterations: u64) -> u64 {
        if iterations == 0 {
            return 0;
        }
        self.schedule_len as u64 + (iterations - 1) * self.ii as u64
    }

    /// Fraction of compute slots occupied: `nodes / (tiles · II)`.
    pub fn utilization(&self, tiles: usize) -> f64 {
        self.placements.len() as f64 / (tiles as f64 * self.ii as f64)
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mapping: II={} len={} nodes={}",
            self.ii,
            self.schedule_len,
            self.placements.len()
        )
    }
}

/// Why mapping failed. Every variant is recoverable by the caller — the
/// mapper never panics on a well-formed request, including degraded fabrics
/// where the answer is simply "not mappable".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The DFG has no nodes; there is nothing to place.
    EmptyDfg,
    /// Some opcode has no capable (alive) tile on this fabric at all.
    NoCapableTile(Opcode),
    /// No feasible schedule within `MII + II_SLACK`.
    IiLimitExceeded {
        /// The last II tried.
        tried: u32,
    },
    /// The per-compile deadline expired before the search finished.
    Timeout {
        /// The budget that expired, in milliseconds.
        budget_ms: u64,
        /// Wall-clock actually spent before the search gave up, in
        /// milliseconds (≥ `budget_ms`: cells started before expiry finish).
        elapsed_ms: u64,
        /// Grid cells actually evaluated before expiry — `0` means the
        /// budget was spent before the search even started (e.g. queueing
        /// behind other compiles), which needs a different remedy than a
        /// genuinely hard-to-map kernel.
        cells_scanned: u64,
    },
    /// A search worker panicked (isolated by the runtime's `catch_unwind`).
    Worker {
        /// Grid index of the panicking attempt.
        index: usize,
        /// Stringified panic payload.
        message: String,
    },
    /// An internal invariant failed; reported instead of panicking so the
    /// serve path stays up.
    Internal(&'static str),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::EmptyDfg => write!(f, "cannot map an empty DFG"),
            MapError::NoCapableTile(op) => {
                write!(f, "no tile on this fabric supports '{op}'")
            }
            MapError::IiLimitExceeded { tried } => {
                write!(f, "no feasible schedule up to II={tried}")
            }
            MapError::Timeout { budget_ms, elapsed_ms, cells_scanned } => {
                write!(
                    f,
                    "mapping deadline of {budget_ms} ms expired after {elapsed_ms} ms \
                     ({cells_scanned} grid cells scanned)"
                )
            }
            MapError::Worker { index, message } => {
                write!(f, "mapping attempt {index} panicked: {message}")
            }
            MapError::Internal(what) => {
                write!(f, "internal mapper invariant failed: {what}")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// Resource-constrained minimum II: nodes sharing a tile-capability set
/// cannot initiate faster than `⌈count / |tiles|⌉`.
pub fn res_mii(dfg: &Dfg, spec: &CgraSpec) -> Result<u32, MapError> {
    res_mii_with(dfg, spec, &ResourceMask::full(spec))
}

/// [`res_mii`] restricted to the alive tiles of `mask`: dead PEs contribute
/// no issue slots, so the bound tightens as the fabric degrades.
pub fn res_mii_with(dfg: &Dfg, spec: &CgraSpec, mask: &ResourceMask) -> Result<u32, MapError> {
    let alive = mask.alive_count();
    if alive == 0 {
        if let Some(n) = dfg.nodes().first() {
            return Err(MapError::NoCapableTile(n.op));
        }
        return Ok(1);
    }
    let mut by_cap: HashMap<Vec<bool>, usize> = HashMap::new();
    for n in dfg.nodes() {
        let cap: Vec<bool> = (0..spec.len())
            .map(|t| mask.tile_alive(t) && spec.tile_supports(t, n.op))
            .collect();
        if !cap.iter().any(|&b| b) {
            return Err(MapError::NoCapableTile(n.op));
        }
        *by_cap.entry(cap).or_insert(0) += 1;
    }
    let mut bound = dfg.len().div_ceil(alive) as u32;
    for (cap, count) in by_cap {
        let tiles = cap.iter().filter(|&&b| b).count();
        bound = bound.max(count.div_ceil(tiles) as u32);
    }
    Ok(bound.max(1))
}

/// `MII = max(RecMII, ResMII)` — the II the search starts from.
pub fn min_ii(dfg: &Dfg, spec: &CgraSpec) -> Result<u32, MapError> {
    min_ii_with(dfg, spec, &ResourceMask::full(spec))
}

/// [`min_ii`] over the alive fabric of `mask`.
pub fn min_ii_with(dfg: &Dfg, spec: &CgraSpec, mask: &ResourceMask) -> Result<u32, MapError> {
    Ok(res_mii_with(dfg, spec, mask)?.max(dfg.rec_mii()))
}

/// The RNG seed of one `(II, attempt)` cell of the search grid. Each attempt
/// owns an independent derived stream, so any cell can be evaluated on any
/// worker thread (or serially, in grid order) with identical results.
fn attempt_seed(seed: u64, ii: u32, attempt: usize) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add(((ii as u64) << 32) | attempt as u64))
}

/// Schedule length (prologue depth) of a finished placement: the first
/// iteration completes only when every value has *landed* — a node's result
/// is still in flight for `hops` cycles after `time + latency` on its way to
/// each consumer, so the mesh routing of the final edges counts toward the
/// prologue (distance-0 operands arrive exactly at their consumer's issue
/// time, but loop-carried operands can land after the last issue).
fn schedule_len_of(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    placements: &[Placement],
) -> Option<u32> {
    let mut len = placements
        .iter()
        .map(|p| p.time + dfg.nodes()[p.node.0].op.latency())
        .max()
        .unwrap_or(0);
    for node in dfg.nodes() {
        let pv = placements[node.id.0];
        for e in &node.inputs {
            let pu = placements[e.from.0];
            let lat = dfg.nodes()[e.from.0].op.latency();
            len = len.max(pu.time + lat + mask.hops(spec, pu.tile, pv.tile)?);
        }
    }
    Some(len)
}

/// Maps a DFG onto the fabric, minimizing II.
///
/// The search is a *portfolio*: the `(II, attempt)` grid — `ATTEMPTS_PER_II`
/// randomized placement restarts for each candidate II from `MII` to
/// `MII + II_SLACK` — is scanned for the first success in grid order. Every
/// cell has its own [`attempt_seed`]-derived RNG stream, and the scan runs on
/// the [`picachu_runtime`] pool (`PICACHU_THREADS` to override), which
/// returns the success with the lowest grid index; the result is therefore
/// bit-identical for any thread count, including the serial path.
///
/// # Errors
/// Returns [`MapError::NoCapableTile`] if the fabric cannot execute some
/// opcode at all (e.g. fused nodes on the homogeneous baseline), or
/// [`MapError::IiLimitExceeded`] when no schedule is found within the search
/// window.
pub fn map_dfg(dfg: &Dfg, spec: &CgraSpec, seed: u64) -> Result<Mapping, MapError> {
    map_dfg_with(dfg, spec, seed, &ResourceMask::full(spec), None)
}

/// [`map_dfg`] restricted to the alive fabric of `mask`, optionally under a
/// wall-clock `deadline`.
///
/// With a full mask and no deadline this is exactly [`map_dfg`] —
/// bit-identical mappings included. A degraded mask narrows placement to
/// alive tiles and reroutes operands via deterministic BFS detours around
/// dead tiles/links; the achieved II then reflects the degradation (callers
/// compare against the healthy II to report inflation).
///
/// The deadline is cooperative: search cells started before expiry finish,
/// cells claimed after it are skipped, and if nothing succeeded the error is
/// [`MapError::Timeout`] rather than [`MapError::IiLimitExceeded`]. A
/// deadline makes the *failure mode* timing-dependent (a success found
/// before expiry is still deterministic), so serve paths pair it with a
/// fallback; tests that need full determinism pass `None`.
///
/// # Errors
/// [`MapError::EmptyDfg`], [`MapError::NoCapableTile`],
/// [`MapError::IiLimitExceeded`], [`MapError::Timeout`], or
/// [`MapError::Worker`] when a search attempt panicked.
pub fn map_dfg_with(
    dfg: &Dfg,
    spec: &CgraSpec,
    seed: u64,
    mask: &ResourceMask,
    deadline: Option<Duration>,
) -> Result<Mapping, MapError> {
    map_dfg_mode(dfg, spec, seed, mask, deadline, PnrMode::Auto)
}

/// [`map_dfg_with`] with an explicit [`PnrMode`] — the knob benchmarks use
/// to compare the greedy and annealed engines on the same fabric.
pub fn map_dfg_mode(
    dfg: &Dfg,
    spec: &CgraSpec,
    seed: u64,
    mask: &ResourceMask,
    deadline: Option<Duration>,
    mode: PnrMode,
) -> Result<Mapping, MapError> {
    let grid = SearchGrid::prepare_with_mode(dfg, spec, mask, seed, deadline, mode)?;
    let found =
        picachu_runtime::try_parallel_find_first(grid.grid_len(), |idx| {
            grid.eval(dfg, spec, mask, idx)
        })
        .map_err(|wp| MapError::Worker { index: wp.index, message: wp.message })?;
    grid.resolve(dfg, spec, mask, found)
}

/// One prepared `(II × attempt)` portfolio search with its cells exposed
/// individually, so callers decide how to fan them out. [`map_dfg_with`]
/// submits one grid to `try_parallel_find_first`; `CompileService`
/// concatenates the grids of *every* cache-missing kernel into a single flat
/// `try_parallel_find_first_grouped` pass — the nesting-free structure that
/// lets cold compiles use the whole pool (a nested `parallel_*` call inside a
/// worker degrades to serial).
///
/// Cell `idx` encodes `(ii, attempt)` as `idx = (ii − MII)·ATTEMPTS_PER_II +
/// attempt`; [`SearchGrid::eval`] is a pure function of `(dfg, spec, mask,
/// idx)` apart from the cooperative deadline, so the lowest-index success is
/// the same mapping the serial scan would find — on either placement engine.
pub struct SearchGrid {
    seed: u64,
    mii: u32,
    mode: PnrMode,
    ctx: place::PlacerCtx,
    deadline: Option<Duration>,
    start: Instant,
    timed_out: AtomicBool,
    cells_scanned: AtomicU64,
}

impl SearchGrid {
    /// Validates the request, computes `MII` and the placer context every
    /// cell shares (priorities, consumer lists, capable tiles). The
    /// deadline clock starts here. Uses [`PnrMode::Auto`]: greedy at paper
    /// scale, annealed above [`ANNEAL_TILE_THRESHOLD`].
    ///
    /// # Errors
    /// [`MapError::EmptyDfg`] or [`MapError::NoCapableTile`].
    pub fn prepare(
        dfg: &Dfg,
        spec: &CgraSpec,
        mask: &ResourceMask,
        seed: u64,
        deadline: Option<Duration>,
    ) -> Result<SearchGrid, MapError> {
        SearchGrid::prepare_with_mode(dfg, spec, mask, seed, deadline, PnrMode::Auto)
    }

    /// [`SearchGrid::prepare`] with an explicit engine choice.
    ///
    /// # Errors
    /// [`MapError::EmptyDfg`] or [`MapError::NoCapableTile`].
    pub fn prepare_with_mode(
        dfg: &Dfg,
        spec: &CgraSpec,
        mask: &ResourceMask,
        seed: u64,
        deadline: Option<Duration>,
        mode: PnrMode,
    ) -> Result<SearchGrid, MapError> {
        if dfg.is_empty() {
            return Err(MapError::EmptyDfg);
        }
        let mii = min_ii_with(dfg, spec, mask)?;
        Ok(SearchGrid {
            seed,
            mii,
            mode,
            ctx: place::PlacerCtx::new(dfg, spec, mask),
            deadline,
            start: Instant::now(),
            timed_out: AtomicBool::new(false),
            cells_scanned: AtomicU64::new(0),
        })
    }

    /// Number of cells in the grid (`(II_SLACK + 1) · ATTEMPTS_PER_II`).
    pub fn grid_len(&self) -> usize {
        (II_SLACK as usize + 1) * ATTEMPTS_PER_II
    }

    /// Evaluates one cell: derives the cell's own RNG stream and runs one
    /// placement attempt on the engine the mode selects (the annealed engine
    /// includes its Route-pass acceptance gate). Returns the
    /// `(ii, placements)` on success. If the cooperative deadline has expired
    /// the cell is skipped (recorded in the timeout flag, not counted as
    /// scanned).
    ///
    /// Must be called with the same `dfg`/`spec`/`mask` the grid was
    /// prepared with.
    pub fn eval(
        &self,
        dfg: &Dfg,
        spec: &CgraSpec,
        mask: &ResourceMask,
        idx: usize,
    ) -> Option<(u32, Vec<Placement>)> {
        if let Some(budget) = self.deadline {
            if self.start.elapsed() >= budget {
                self.timed_out.store(true, Ordering::SeqCst);
                return None;
            }
        }
        self.cells_scanned.fetch_add(1, Ordering::Relaxed);
        let ii = self.mii + (idx / ATTEMPTS_PER_II) as u32;
        let attempt = idx % ATTEMPTS_PER_II;
        let mut rng = TestRng::seed_from_u64(attempt_seed(self.seed, ii, attempt));
        let annealed = match self.mode {
            PnrMode::Greedy => false,
            PnrMode::Annealed => true,
            PnrMode::Auto => spec.len() > ANNEAL_TILE_THRESHOLD,
        };
        let placements = if annealed {
            place::try_place_annealed(dfg, spec, mask, ii, &mut rng, &self.ctx)
        } else {
            place::try_place(dfg, spec, mask, ii, &mut rng, &self.ctx)
        };
        placements.map(|p| (ii, p))
    }

    /// Turns the lowest-index success (or its absence) into the final
    /// [`Mapping`] / [`MapError`], distinguishing a deadline expiry from a
    /// genuinely infeasible search window.
    ///
    /// # Errors
    /// [`MapError::Timeout`] (with elapsed/cells-scanned telemetry),
    /// [`MapError::IiLimitExceeded`], or [`MapError::Internal`] if an
    /// accepted placement has an unroutable edge.
    pub fn resolve(
        &self,
        dfg: &Dfg,
        spec: &CgraSpec,
        mask: &ResourceMask,
        found: Option<(usize, (u32, Vec<Placement>))>,
    ) -> Result<Mapping, MapError> {
        match found {
            Some((_, (ii, placements))) => {
                let schedule_len = schedule_len_of(dfg, spec, mask, &placements)
                    .ok_or(MapError::Internal("accepted placement has unroutable edge"))?;
                Ok(Mapping { ii, placements, schedule_len })
            }
            None if self.timed_out.load(Ordering::SeqCst) => Err(MapError::Timeout {
                budget_ms: self.deadline.map_or(0, |d| d.as_millis() as u64),
                elapsed_ms: self.start.elapsed().as_millis() as u64,
                cells_scanned: self.cells_scanned.load(Ordering::Relaxed),
            }),
            None => Err(MapError::IiLimitExceeded { tried: self.mii + II_SLACK }),
        }
    }
}

/// Randomized restarts of the incremental repair path (per widening round).
const REPAIR_ATTEMPTS: usize = 10;

/// Bounded ripple-widening rounds: when the affected sub-DFG cannot be
/// re-placed around the pinned remainder (tight schedules, especially at
/// II = 1, leave a lone displaced node almost no freedom), each round
/// un-keeps the DFG neighbours of the currently-unkept region and retries,
/// trading a larger re-placed region for slack. The final round can
/// degenerate to a from-scratch placement at the *retained* II — still a
/// repair, because a full re-map is free to inflate the II.
const REPAIR_WIDEN_ROUNDS: usize = 4;

/// Nodes on the longest-latency distance-0 dependence chain through each
/// unkept node (ascending id order, deterministic tie-breaks).
///
/// At tight IIs — especially II = 1, where every tile owns a single slot —
/// a displaced node's placement freedom is bounded by the *timing of its
/// whole dependence chain*, not just its immediate neighbours. Un-keeping
/// the full critical path in one step lets the placer re-time the chain as
/// a unit; the generic one-hop ripple instead grows a radius around the
/// displaced node and often exhausts its round budget before freeing the
/// chain ends that actually pin the timing.
fn critical_path_nodes(dfg: &Dfg, unkept: &[bool]) -> Vec<usize> {
    let n = dfg.len();
    let nodes = dfg.nodes();
    let asap = dfg.asap_levels();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (asap[i], i));
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for node in nodes {
        for e in &node.inputs {
            if e.distance == 0 {
                succs[e.from.0].push(node.id.0);
            }
        }
    }
    // longest-latency chain arriving at / leaving each node, over
    // distance-0 edges only (recurrences don't constrain same-iteration
    // timing); `order` is topological for those edges
    let mut up = vec![0u64; n];
    for &i in &order {
        for e in &nodes[i].inputs {
            if e.distance == 0 {
                up[i] = up[i].max(up[e.from.0] + u64::from(nodes[e.from.0].op.latency()));
            }
        }
    }
    let mut down = vec![0u64; n];
    for &i in order.iter().rev() {
        for &s in &succs[i] {
            down[i] = down[i].max(down[s] + u64::from(nodes[i].op.latency()));
        }
    }
    let mut on_path = vec![false; n];
    for (d, _) in unkept.iter().enumerate().filter(|&(_, &u)| u) {
        // upstream: follow the predecessor with the longest arriving chain
        let mut cur = d;
        loop {
            on_path[cur] = true;
            let pred = nodes[cur]
                .inputs
                .iter()
                .filter(|e| e.distance == 0)
                .map(|e| e.from.0)
                .max_by_key(|&p| (up[p] + u64::from(nodes[p].op.latency()), std::cmp::Reverse(p)));
            match pred {
                Some(p) => cur = p,
                None => break,
            }
        }
        // downstream: follow the successor with the longest leaving chain
        cur = d;
        loop {
            on_path[cur] = true;
            match succs[cur].iter().copied().max_by_key(|&s| (down[s], std::cmp::Reverse(s))) {
                Some(s) => cur = s,
                None => break,
            }
        }
    }
    (0..n).filter(|&i| on_path[i]).collect()
}

/// Incrementally re-maps `base` onto the degraded fabric of `mask`,
/// retaining the II and every placement the degradation did not disturb.
///
/// This is a *Place-pass re-entry with pinned placements*: the kept set
/// starts as "every node on an alive tile" and shrinks to a fixpoint —
/// [`place::pin_state`] re-validates the kept placements under the masked
/// (possibly detoured) routes, and each violation un-keeps the consumer it
/// identifies. If everything survives, only `schedule_len` is recomputed
/// (detours lengthen the prologue). Otherwise up to [`REPAIR_ATTEMPTS`]
/// seeded attempts place the affected sub-DFG around the pinned remainder
/// via [`place::try_place_pinned`].
///
/// Returns `None` when no repair at the retained II exists — the caller
/// falls back to a full re-map, which is free to inflate the II. The repair
/// is deterministic in `(dfg, spec, seed, mask, base)`: the attempt seeds
/// derive from [`attempt_seed`] under a fixed salt, so a repaired mapping is
/// reproducible across processes exactly like a cold one.
pub fn repair_mapping(
    dfg: &Dfg,
    spec: &CgraSpec,
    seed: u64,
    mask: &ResourceMask,
    base: &Mapping,
) -> Option<Mapping> {
    if dfg.is_empty() || base.placements.len() != dfg.len() {
        return None;
    }
    let ii = base.ii;
    let mut pinned: Vec<Option<Placement>> = base
        .placements
        .iter()
        .map(|p| if mask.tile_alive(p.tile) { Some(*p) } else { None })
        .collect();
    loop {
        match place::pin_state(dfg, spec, mask, ii, &pinned) {
            Ok(_) => break,
            // the take can't miss: pin_state only faults pinned nodes
            Err(v) => {
                pinned[v].take()?;
            }
        }
    }
    if pinned.iter().all(|p| p.is_some()) {
        // every placement survives the degradation; only the prologue can
        // change (detours make operands land later)
        let schedule_len = schedule_len_of(dfg, spec, mask, &base.placements)?;
        return Some(Mapping { ii, placements: base.placements.clone(), schedule_len });
    }
    // Phase 0: the historical behavior — attempts at the surviving pinned
    // set, then generic ripple-widening rounds. Every case this phase could
    // ever repair yields the bit-identical mapping it always did (the
    // attempt streams are unchanged), which keeps the process cache and the
    // on-disk mapstore stable across this change.
    //
    // Phase 1 (only reached when phase 0 fails): start over with the
    // displaced region's *critical path* un-kept as well. At tight IIs —
    // especially II = 1, where every tile owns a single slot — a displaced
    // node's freedom is bounded by the timing of its whole dependence
    // chain, and the one-hop ripple often exhausts its round budget before
    // freeing the chain ends that actually pin the schedule (see
    // `critical_path_nodes`). Phase 1 draws distinct attempt streams via
    // the round offset, so it is a genuinely new portfolio, not a replay.
    let ctx = place::PlacerCtx::new(dfg, spec, mask);
    for phase in 0..2usize {
        let mut pins = pinned.clone();
        if phase == 1 {
            let unkept: Vec<bool> = pins.iter().map(|p| p.is_none()).collect();
            let mut any = false;
            for i in critical_path_nodes(dfg, &unkept) {
                if pins[i].take().is_some() {
                    any = true;
                }
            }
            if !any {
                break; // the path is already free: phase 0 covered this
            }
        }
        for round in 0..REPAIR_WIDEN_ROUNDS {
            for attempt in 0..REPAIR_ATTEMPTS {
                // distinct salt keeps repair streams disjoint from the cold
                // search; the (phase, round) pair folds into the attempt
                // index so every cell draws a distinct deterministic stream
                let idx = (phase * REPAIR_WIDEN_ROUNDS + round) * REPAIR_ATTEMPTS + attempt;
                let s = splitmix64(attempt_seed(seed, ii, idx) ^ 0x52455041_49525F31);
                let mut rng = TestRng::seed_from_u64(s);
                if let Some(placements) =
                    place::try_place_pinned(dfg, spec, mask, ii, &mut rng, &ctx, &pins)
                {
                    let schedule_len = schedule_len_of(dfg, spec, mask, &placements)?;
                    return Some(Mapping { ii, placements, schedule_len });
                }
            }
            // widen: un-keep every pinned node adjacent (either edge
            // direction, any distance) to the unkept region. Removing pins
            // only removes pin_state constraints, so the pinned set stays
            // self-consistent.
            let unkept: Vec<bool> = pins.iter().map(|p| p.is_none()).collect();
            let mut widened = false;
            for node in dfg.nodes() {
                for e in &node.inputs {
                    if unkept[e.from.0] && pins[node.id.0].take().is_some() {
                        widened = true;
                    }
                    if unkept[node.id.0] && pins[e.from.0].take().is_some() {
                        widened = true;
                    }
                }
            }
            if !widened {
                break; // nothing left to ripple into — give up
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{fuse_patterns, lower_special_ops, unroll};
    use picachu_ir::kernels::{kernel_library, relu_kernel, softmax_kernel};

    fn picachu() -> CgraSpec {
        CgraSpec::picachu(4, 4)
    }

    #[test]
    fn relu_maps_at_low_ii() {
        let k = relu_kernel();
        let fused = fuse_patterns(&k.loops[0].dfg);
        let m = map_dfg(&fused, &picachu(), 1).unwrap();
        assert!(m.ii <= 2, "relu fused II = {}", m.ii);
    }

    #[test]
    fn all_fused_kernels_map_on_picachu() {
        for k in kernel_library(4) {
            for l in &k.loops {
                let fused = fuse_patterns(&l.dfg);
                let m = map_dfg(&fused, &picachu(), 7).unwrap_or_else(|e| {
                    panic!("{} failed to map: {e}", l.label)
                });
                assert!(m.ii >= 1 && m.ii <= 16, "{}: II {}", l.label, m.ii);
            }
        }
    }

    #[test]
    fn all_lowered_kernels_map_on_baseline() {
        let base = CgraSpec::homogeneous(4, 4);
        for k in kernel_library(4) {
            for l in &k.loops {
                let low = lower_special_ops(&l.dfg);
                let m = map_dfg(&low, &base, 7).unwrap_or_else(|e| {
                    panic!("{} failed on baseline: {e}", l.label)
                });
                assert!(m.ii >= 2, "{}: baseline II {} below RecMII", l.label, m.ii);
            }
        }
    }

    #[test]
    fn fused_beats_baseline_on_exp_loop() {
        // the headline Fig. 7a effect on one kernel
        let k = softmax_kernel(4);
        let l = &k.loops[1];
        let base = map_dfg(&lower_special_ops(&l.dfg), &CgraSpec::homogeneous(4, 4), 3).unwrap();
        let ours = map_dfg(&fuse_patterns(&l.dfg), &picachu(), 3).unwrap();
        assert!(
            ours.ii <= base.ii,
            "fused II {} should not exceed baseline II {}",
            ours.ii,
            base.ii
        );
    }

    #[test]
    fn fused_nodes_rejected_by_baseline() {
        let k = relu_kernel();
        let fused = fuse_patterns(&k.loops[0].dfg);
        let err = map_dfg(&fused, &CgraSpec::homogeneous(4, 4), 1).unwrap_err();
        assert!(matches!(err, MapError::NoCapableTile(_)));
    }

    #[test]
    fn placements_respect_capabilities_and_slots() {
        let k = softmax_kernel(4);
        let fused = fuse_patterns(&k.loops[1].dfg);
        let spec = picachu();
        let m = map_dfg(&fused, &spec, 11).unwrap();
        let mut slots = std::collections::HashSet::new();
        for p in &m.placements {
            let op = fused.nodes()[p.node.0].op;
            assert!(spec.tile_supports(p.tile, op), "{op} on tile {}", p.tile);
            assert!(slots.insert((p.tile, p.time % m.ii)), "slot conflict");
        }
    }

    #[test]
    fn dependences_satisfied_in_schedule() {
        let k = softmax_kernel(6);
        let fused = fuse_patterns(&k.loops[1].dfg);
        let spec = picachu();
        let m = map_dfg(&fused, &spec, 5).unwrap();
        for node in fused.nodes() {
            let pv = m.placements[node.id.0];
            for e in &node.inputs {
                let pu = m.placements[e.from.0];
                let lat = fused.nodes()[e.from.0].op.latency();
                let hops = spec.hops(pu.tile, pv.tile);
                assert!(
                    pu.time + lat + hops <= pv.time + e.distance * m.ii,
                    "edge {} -> {} violated",
                    e.from,
                    node.id
                );
            }
        }
    }

    #[test]
    fn unrolled_kernels_map_with_bounded_ii_growth() {
        let k = relu_kernel();
        let base = map_dfg(&fuse_patterns(&k.loops[0].dfg), &picachu(), 2).unwrap();
        let u4 = unroll(&k.loops[0].dfg, 4);
        let m4 = map_dfg(&fuse_patterns(&u4), &picachu(), 2).unwrap();
        // 4 elements per II: per-element cost must drop
        let per_elem_base = base.ii as f64;
        let per_elem_u4 = m4.ii as f64 / 4.0;
        assert!(
            per_elem_u4 < per_elem_base,
            "UF4 per-element {per_elem_u4} !< base {per_elem_base}"
        );
    }

    #[test]
    fn cycles_for_iterations() {
        let k = relu_kernel();
        let m = map_dfg(&fuse_patterns(&k.loops[0].dfg), &picachu(), 1).unwrap();
        assert_eq!(m.cycles_for(0), 0);
        assert_eq!(m.cycles_for(1), m.schedule_len as u64);
        assert_eq!(m.cycles_for(101), m.schedule_len as u64 + 100 * m.ii as u64);
    }

    #[test]
    fn mapping_is_deterministic_per_seed() {
        let k = softmax_kernel(4);
        let fused = fuse_patterns(&k.loops[0].dfg);
        let a = map_dfg(&fused, &picachu(), 42).unwrap();
        let b = map_dfg(&fused, &picachu(), 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mapping_identical_across_thread_counts() {
        // The portfolio search must be bit-identical for any pool size
        // (lowest-grid-index success wins regardless of which worker finds
        // a success first).
        let k = softmax_kernel(4);
        let spec = picachu();
        let loops: Vec<_> = k.loops.iter().map(|l| fuse_patterns(&l.dfg)).collect();
        let run = |threads: usize| {
            picachu_runtime::set_thread_override(Some(threads));
            let ms: Vec<Mapping> =
                loops.iter().map(|d| map_dfg(d, &spec, 42).unwrap()).collect();
            picachu_runtime::set_thread_override(None);
            ms
        };
        let serial = run(1);
        for t in [2, 8] {
            assert_eq!(run(t), serial, "{t} threads diverged from serial");
        }
    }

    #[test]
    fn schedule_len_covers_in_flight_operands() {
        // The prologue ends only when every value has landed: issue+latency
        // of every node, plus mesh hops on each edge (loop-carried operands
        // can still be in flight after the last issue).
        let k = softmax_kernel(4);
        let spec = picachu();
        for l in &k.loops {
            let fused = fuse_patterns(&l.dfg);
            let m = map_dfg(&fused, &spec, 11).unwrap();
            let issue_done = m
                .placements
                .iter()
                .map(|p| p.time + fused.nodes()[p.node.0].op.latency())
                .max()
                .unwrap();
            assert!(m.schedule_len >= issue_done, "{}", l.label);
            for node in fused.nodes() {
                let pv = m.placements[node.id.0];
                for e in &node.inputs {
                    let pu = m.placements[e.from.0];
                    let lat = fused.nodes()[e.from.0].op.latency();
                    assert!(
                        pu.time + lat + spec.hops(pu.tile, pv.tile) <= m.schedule_len,
                        "{}: edge {} -> {} still in flight at schedule_len",
                        l.label,
                        e.from,
                        node.id
                    );
                }
            }
        }
    }

    #[test]
    fn empty_dfg_is_a_typed_error() {
        let g = picachu_ir::Dfg::new("empty");
        assert_eq!(map_dfg(&g, &picachu(), 0), Err(MapError::EmptyDfg));
    }

    #[test]
    fn full_mask_is_bit_identical_to_map_dfg() {
        let spec = picachu();
        let mask = ResourceMask::full(&spec);
        for k in kernel_library(4) {
            for l in &k.loops {
                let fused = fuse_patterns(&l.dfg);
                assert_eq!(
                    map_dfg(&fused, &spec, 7),
                    map_dfg_with(&fused, &spec, 7, &mask, None),
                    "{}",
                    l.label
                );
            }
        }
    }

    #[test]
    fn every_single_dead_tile_still_maps_all_kernels() {
        let spec = picachu();
        for dead in 0..spec.len() {
            let mask = ResourceMask::degraded(&spec, [dead], []);
            for k in kernel_library(4) {
                for l in &k.loops {
                    let fused = fuse_patterns(&l.dfg);
                    let m = map_dfg_with(&fused, &spec, 7, &mask, None)
                        .unwrap_or_else(|e| panic!("{} with tile {dead} dead: {e}", l.label));
                    for p in &m.placements {
                        assert_ne!(p.tile, dead, "{}: node on the dead tile", l.label);
                    }
                }
            }
        }
    }

    #[test]
    fn every_single_dead_link_still_maps_all_kernels() {
        let spec = picachu();
        let mut links = Vec::new();
        for t in 0..spec.len() {
            for nb in spec.neighbors(t) {
                if t < nb {
                    links.push((t, nb));
                }
            }
        }
        assert_eq!(links.len(), 24, "4x4 mesh has 24 links");
        for &(a, b) in &links {
            let mask = ResourceMask::degraded(&spec, [], [(a, b)]);
            for k in kernel_library(4) {
                for l in &k.loops {
                    let fused = fuse_patterns(&l.dfg);
                    map_dfg_with(&fused, &spec, 7, &mask, None)
                        .unwrap_or_else(|e| panic!("{} with link {a}-{b} dead: {e}", l.label));
                }
            }
        }
    }

    #[test]
    fn degraded_mapping_is_deterministic() {
        let spec = picachu();
        let mask = ResourceMask::degraded(&spec, [0, 5], [(9, 10)]);
        let k = softmax_kernel(4);
        let fused = fuse_patterns(&k.loops[1].dfg);
        let a = map_dfg_with(&fused, &spec, 42, &mask, None).unwrap();
        let b = map_dfg_with(&fused, &spec, 42, &mask, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unmappable_degraded_fabric_is_a_typed_error() {
        // kill every memory-port tile: loads have no capable tile left
        let spec = picachu();
        let dead: Vec<usize> = (0..spec.len())
            .filter(|&t| spec.tile(t).mem_port)
            .collect();
        let mask = ResourceMask::degraded(&spec, dead, []);
        let k = relu_kernel();
        let fused = fuse_patterns(&k.loops[0].dfg);
        let err = map_dfg_with(&fused, &spec, 1, &mask, None).unwrap_err();
        assert!(matches!(err, MapError::NoCapableTile(_)), "{err}");
    }

    #[test]
    fn zero_deadline_times_out() {
        let k = softmax_kernel(4);
        let fused = fuse_patterns(&k.loops[1].dfg);
        let spec = picachu();
        let err = map_dfg_with(
            &fused,
            &spec,
            1,
            &ResourceMask::full(&spec),
            Some(Duration::ZERO),
        )
        .unwrap_err();
        // deadline-skip path: with a zero budget every cell is skipped at
        // claim time, so no cell is ever scanned and the telemetry says so
        match err {
            MapError::Timeout { budget_ms: 0, cells_scanned: 0, .. } => {}
            other => panic!("expected zero-budget timeout with zero cells, got {other:?}"),
        }
    }

    #[test]
    fn timeout_reports_elapsed_and_cells() {
        let k = softmax_kernel(4);
        let fused = fuse_patterns(&k.loops[1].dfg);
        let spec = picachu();
        let err = map_dfg_with(
            &fused,
            &spec,
            1,
            &ResourceMask::full(&spec),
            Some(Duration::ZERO),
        )
        .unwrap_err();
        let MapError::Timeout { budget_ms, elapsed_ms, cells_scanned } = err else {
            panic!("expected Timeout");
        };
        assert_eq!(budget_ms, 0);
        assert_eq!(cells_scanned, 0);
        // elapsed is wall-clock from grid preparation, so merely sane
        assert!(elapsed_ms < 60_000, "elapsed {elapsed_ms} ms");
        let msg = MapError::Timeout { budget_ms, elapsed_ms, cells_scanned }.to_string();
        assert!(msg.contains("0 grid cells scanned"), "{msg}");
    }

    fn assert_mapping_legal(dfg: &Dfg, spec: &CgraSpec, mask: &ResourceMask, m: &Mapping) {
        let mut slots = std::collections::HashSet::new();
        for p in &m.placements {
            let op = dfg.nodes()[p.node.0].op;
            assert!(mask.tile_alive(p.tile), "node {} on dead tile {}", p.node, p.tile);
            assert!(spec.tile_supports(p.tile, op), "{op} on tile {}", p.tile);
            assert!(slots.insert((p.tile, p.time % m.ii)), "slot conflict");
        }
        for node in dfg.nodes() {
            let pv = m.placements[node.id.0];
            for e in &node.inputs {
                let pu = m.placements[e.from.0];
                let lat = dfg.nodes()[e.from.0].op.latency();
                let hops = mask
                    .hops(spec, pu.tile, pv.tile)
                    .unwrap_or_else(|| panic!("edge {} -> {} unroutable", e.from, node.id));
                assert!(
                    pu.time + lat + hops <= pv.time + e.distance * m.ii,
                    "edge {} -> {} violated",
                    e.from,
                    node.id
                );
            }
        }
    }

    #[test]
    fn repair_on_full_mask_is_identity() {
        let spec = picachu();
        let mask = ResourceMask::full(&spec);
        for k in kernel_library(4) {
            for l in &k.loops {
                let fused = fuse_patterns(&l.dfg);
                let base = map_dfg(&fused, &spec, 7).unwrap();
                let repaired = repair_mapping(&fused, &spec, 7, &mask, &base)
                    .unwrap_or_else(|| panic!("{}: full-mask repair failed", l.label));
                assert_eq!(repaired, base, "{}", l.label);
            }
        }
    }

    #[test]
    fn repair_after_dead_tile_keeps_ii_and_stays_legal() {
        let spec = picachu();
        let k = softmax_kernel(4);
        let mut repaired_some = 0;
        for l in &k.loops {
            let fused = fuse_patterns(&l.dfg);
            let base = map_dfg(&fused, &spec, 7).unwrap();
            // kill the tile hosting node 0: the repair must move at least
            // that node and may ripple, but never inflates the II
            let dead = base.placements[0].tile;
            let mask = ResourceMask::degraded(&spec, [dead], []);
            if let Some(m) = repair_mapping(&fused, &spec, 7, &mask, &base) {
                assert_eq!(m.ii, base.ii, "{}: repair inflated II", l.label);
                assert_mapping_legal(&fused, &spec, &mask, &m);
                repaired_some += 1;
            }
        }
        assert!(repaired_some > 0, "repair never succeeded on any softmax loop");
    }

    #[test]
    fn repair_is_deterministic() {
        let spec = picachu();
        let k = softmax_kernel(4);
        let fused = fuse_patterns(&k.loops[1].dfg);
        let base = map_dfg(&fused, &spec, 42).unwrap();
        let dead = base.placements[0].tile;
        let mask = ResourceMask::degraded(&spec, [dead], []);
        let a = repair_mapping(&fused, &spec, 42, &mask, &base);
        let b = repair_mapping(&fused, &spec, 42, &mask, &base);
        assert_eq!(a, b);
    }

    #[test]
    fn repair_cracks_tight_ii1_schedule_via_critical_path_widening() {
        // Regression for the II=1 repair weakness: softmax loop "softmax(3)"
        // maps at II=1 under seed 7 on the 4×4 fabric, and killing tile 14
        // used to defeat ripple-widening entirely — the engine fell through
        // to a full re-map even though a retained-II repair exists. The
        // critical-path phase finds it.
        let spec = picachu();
        let k = softmax_kernel(4);
        let l = &k.loops[2];
        let fused = fuse_patterns(&l.dfg);
        let base = map_dfg(&fused, &spec, 7).unwrap();
        assert_eq!(base.ii, 1, "precondition: the tight II=1 schedule");
        assert!(
            base.placements.iter().any(|p| p.tile == 14),
            "precondition: the mapping uses tile 14"
        );
        let mask = ResourceMask::degraded(&spec, [14], []);
        let m = repair_mapping(&fused, &spec, 7, &mask, &base)
            .expect("critical-path widening must repair at the retained II");
        assert_eq!(m.ii, 1, "repair must not inflate the II");
        assert_mapping_legal(&fused, &spec, &mask, &m);
    }

    #[test]
    fn repair_gives_up_when_fabric_cannot_host_the_ops() {
        // all memory-port tiles dead: loads have nowhere to go, so the
        // repair must report None (caller then takes the full-re-map rung,
        // which yields a typed NoCapableTile)
        let spec = picachu();
        let dead: Vec<usize> = (0..spec.len()).filter(|&t| spec.tile(t).mem_port).collect();
        let mask = ResourceMask::degraded(&spec, dead, []);
        let k = relu_kernel();
        let fused = fuse_patterns(&k.loops[0].dfg);
        let base = map_dfg(&fused, &spec, 1).unwrap();
        assert_eq!(repair_mapping(&fused, &spec, 1, &mask, &base), None);
    }

    #[test]
    fn res_mii_tightens_on_degraded_fabric() {
        let spec = picachu();
        let k = softmax_kernel(4);
        let fused = fuse_patterns(&k.loops[1].dfg);
        let full = res_mii(&fused, &spec).unwrap();
        // kill half the fabric: the bound cannot get looser
        let mask = ResourceMask::degraded(&spec, 0..8, []);
        let degraded = res_mii_with(&fused, &spec, &mask).unwrap();
        assert!(degraded >= full, "degraded {degraded} < full {full}");
    }

    #[test]
    fn res_mii_accounts_for_memory_ports() {
        // a graph of 12 loads on a fabric with 8 mem tiles: ResMII >= 2
        let mut g = picachu_ir::Dfg::new("loads");
        for _ in 0..12 {
            g.push(Opcode::Load, vec![]);
        }
        assert!(res_mii(&g, &picachu()).unwrap() >= 2);
    }

    // ---- Place→Route→Fold pipeline ----

    #[test]
    fn auto_mode_is_greedy_at_paper_scale() {
        // ≤ ANNEAL_TILE_THRESHOLD tiles: Auto must be bit-identical to the
        // forced greedy engine (the pre-pipeline mapper) on 4×4 and 8×8.
        for spec in [CgraSpec::picachu(4, 4), CgraSpec::picachu(8, 8)] {
            assert!(spec.len() <= ANNEAL_TILE_THRESHOLD);
            let mask = ResourceMask::full(&spec);
            for k in kernel_library(4) {
                for l in &k.loops {
                    let fused = fuse_patterns(&l.dfg);
                    assert_eq!(
                        map_dfg_mode(&fused, &spec, 7, &mask, None, PnrMode::Auto),
                        map_dfg_mode(&fused, &spec, 7, &mask, None, PnrMode::Greedy),
                        "{} on {}x{}",
                        l.label,
                        spec.rows,
                        spec.cols
                    );
                }
            }
        }
    }

    #[test]
    fn annealed_mappings_are_legal_and_deterministic() {
        // Force the annealed engine on the paper fabric: the result must be
        // a legal mapping, identical across repeated runs and thread counts.
        let spec = picachu();
        let mask = ResourceMask::full(&spec);
        let k = softmax_kernel(4);
        for l in &k.loops {
            let fused = fuse_patterns(&l.dfg);
            let run = |threads: usize| {
                picachu_runtime::set_thread_override(Some(threads));
                let m = map_dfg_mode(&fused, &spec, 9, &mask, None, PnrMode::Annealed);
                picachu_runtime::set_thread_override(None);
                m
            };
            let serial = run(1).unwrap_or_else(|e| panic!("{}: annealed failed: {e}", l.label));
            assert_mapping_legal(&fused, &spec, &mask, &serial);
            for t in [2, 8] {
                assert_eq!(run(t).unwrap(), serial, "{}: {t} threads diverged", l.label);
            }
        }
    }

    #[test]
    fn routes_arrive_exactly_and_respect_the_fabric() {
        // Route-pass structural invariants on both engines: every distance-0
        // edge departs no earlier than ready, arrives exactly at the
        // consumer's issue time, moves one alive hop per cycle, and folded
        // hops only ever sit on intermediate tiles.
        let spec = picachu();
        let mask = ResourceMask::degraded(&spec, [5], [(9, 10)]);
        let k = softmax_kernel(4);
        for mode in [PnrMode::Greedy, PnrMode::Annealed] {
            for l in &k.loops {
                let fused = fuse_patterns(&l.dfg);
                let m = map_dfg_mode(&fused, &spec, 7, &mask, None, mode).unwrap();
                let routes = route_mapping(&fused, &spec, &mask, m.ii, &m.placements)
                    .expect("legal mapping must route");
                let mut seen = 0;
                for re in &routes.edges {
                    seen += 1;
                    let pu = m.placements[re.from.0];
                    let pv = m.placements[re.to.0];
                    let lat = fused.nodes()[re.from.0].op.latency();
                    assert_eq!(re.tiles.first(), Some(&pu.tile));
                    assert_eq!(re.tiles.last(), Some(&pv.tile));
                    assert!(re.depart >= pu.time + lat, "departs before ready");
                    assert_eq!(re.depart + re.hops(), pv.time, "must arrive exactly");
                    assert_eq!(re.folded.len() as u32, re.hops());
                    for w in re.tiles.windows(2) {
                        assert_eq!(spec.hops(w[0], w[1]), 1, "non-adjacent step");
                        assert!(mask.link_alive(w[0], w[1]), "route over dead link");
                    }
                    if !re.folded.is_empty() {
                        assert!(!re.folded[0], "first hop cannot fold");
                    }
                }
                let d0_edges: usize = fused
                    .nodes()
                    .iter()
                    .flat_map(|n| &n.inputs)
                    .filter(|e| e.distance == 0)
                    .count();
                assert_eq!(seen, d0_edges, "{}: every d0 edge routed", l.label);
                assert_eq!(
                    routes.used_channel_slots + routes.folded_hops,
                    routes.total_hops
                );
            }
        }
    }

    #[test]
    fn pnr_report_is_sane_for_every_kernel() {
        let spec = picachu();
        let mask = ResourceMask::full(&spec);
        for k in kernel_library(4) {
            for l in &k.loops {
                let fused = fuse_patterns(&l.dfg);
                let m = map_dfg(&fused, &spec, 7).unwrap();
                let r = pnr_report(&fused, &spec, &mask, &m)
                    .unwrap_or_else(|| panic!("{}: no report", l.label));
                assert_eq!(r.achieved_ii, m.ii);
                assert_eq!(r.critical_path, m.schedule_len);
                assert!(r.area_used > 0.0 && r.area_used <= 1.0, "{}", r.area_used);
                assert!(
                    (0.0..=1.0).contains(&r.channel_utilization) || !r.congestion_free,
                    "utilization {} without congestion",
                    r.channel_utilization
                );
                assert!(r.folded_hops <= r.routed_hops);
            }
        }
    }

    #[test]
    fn report_survives_degraded_fabric() {
        let spec = picachu();
        let mask = ResourceMask::degraded(&spec, [0, 5], [(9, 10)]);
        let k = softmax_kernel(4);
        let fused = fuse_patterns(&k.loops[1].dfg);
        let m = map_dfg_with(&fused, &spec, 42, &mask, None).unwrap();
        let r = pnr_report(&fused, &spec, &mask, &m).expect("degraded mapping must report");
        assert_eq!(r.achieved_ii, m.ii);
        assert!(r.area_used <= 1.0);
    }
}
