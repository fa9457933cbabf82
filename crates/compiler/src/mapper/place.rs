//! Place pass: assigns every DFG node a (tile, time) on the time-extended
//! fabric.
//!
//! Two placement engines share this module:
//!
//! * **Greedy** ([`try_place`] / [`place_rest`]) — the historical randomized
//!   priority-order placer that interleaves placement with legacy
//!   (tile, slot) routing-capacity checks. It remains the only engine for
//!   paper-scale fabrics (≤ [`super::ANNEAL_TILE_THRESHOLD`] tiles), so every
//!   mapping the repo has ever golden-tested stays bit-identical, and it is
//!   the re-entry point for incremental repair ([`try_place_pinned`]: the
//!   Place pass with pinned placements).
//! * **Annealed** ([`try_place_annealed`]) — cgra_pnr-style simulated
//!   annealing over tile assignments for large fabrics, where greedy
//!   scatter congests the mesh. The SA cost function combines estimated
//!   route length (hops over every edge) with a channel-congestion estimate
//!   (canonical-path pass-through pressure per tile); times are then derived
//!   by modulo list scheduling on the fixed tiles, and the placement is only
//!   accepted if the [`super::route`] pass proves it congestion-free under
//!   the per-link channel model.
//!
//! Both engines draw all randomness from the cell's own [`TestRng`] stream,
//! so the portfolio search stays bit-identical at any thread count. What
//! does not depend on the stream — priorities, consumer lists, capable
//! tiles — lives in a [`PlacerCtx`] built once per search grid and
//! borrowed by every cell.

use super::mask::PathWalk;
use super::route::{link_slot, link_slots, CHANNEL_CAP};
use super::{Placement, ResourceMask, ROUTE_CAP};
use crate::arch::CgraSpec;
use picachu_ir::dfg::{Dfg, NodeId};
use picachu_ir::opcode::Opcode;
use picachu_testkit::TestRng;

pub(crate) struct State<'a> {
    spec: &'a CgraSpec,
    mask: &'a ResourceMask,
    ii: u32,
    /// compute occupancy: (tile, slot) -> taken
    pub(crate) compute: Vec<bool>,
    /// routing occupancy counts: (tile, slot)
    routing: Vec<u32>,
}

impl<'a> State<'a> {
    pub(crate) fn new(spec: &'a CgraSpec, mask: &'a ResourceMask, ii: u32) -> State<'a> {
        State {
            spec,
            mask,
            ii,
            compute: vec![false; spec.len() * ii as usize],
            routing: vec![0; spec.len() * ii as usize],
        }
    }

    pub(crate) fn idx(&self, tile: usize, time: u32) -> usize {
        tile * self.ii as usize + (time % self.ii) as usize
    }

    /// Checks that the operand leaving `from` at `depart` can be routed to
    /// `to` (arriving at `depart + hops`): the pair must be connected on the
    /// alive fabric and every intermediate tile must have routing capacity.
    fn route_free(&self, from: usize, to: usize, depart: u32) -> bool {
        let Some(path) = self.mask.path(self.spec, from, to) else {
            return false;
        };
        path.enumerate()
            .all(|(k, tile)| self.routing[self.idx(tile, depart + k as u32 + 1)] < ROUTE_CAP)
    }

    fn route_commit(&mut self, from: usize, to: usize, depart: u32) {
        let Some(path) = self.mask.path(self.spec, from, to) else {
            return; // unreachable: route_free succeeded before every commit
        };
        for (k, tile) in path.enumerate() {
            let i = self.idx(tile, depart + k as u32 + 1);
            self.routing[i] += 1;
        }
    }
}

/// Scheduling priority per node: the ASAP level, except that φ-class nodes
/// are deferred to just before their earliest same-iteration consumer.
///
/// A φ has no same-iteration inputs, so its ASAP level is 0 — but in modulo
/// scheduling the φ of a reduction must execute just before its update (which
/// may sit behind a long chain, e.g. the exp pipeline feeding a softmax sum).
/// Scheduling the φ at time 0 would force `II ≥ chain length` through the
/// recurrence constraint; deferring it keeps RecMII achievable.
fn priorities(dfg: &Dfg) -> Vec<u32> {
    let levels = dfg.asap_levels();
    let mut prio = levels.clone();
    for node in dfg.nodes() {
        if !matches!(node.op, Opcode::Phi | Opcode::FusedPhiAdd | Opcode::FusedPhiAddAdd) {
            continue;
        }
        // earliest same-iteration consumer
        let mut min_consumer: Option<u32> = None;
        for c in dfg.nodes() {
            if c.inputs.iter().any(|e| e.distance == 0 && e.from == node.id) {
                let l = levels[c.id.0];
                min_consumer = Some(min_consumer.map_or(l, |m: u32| m.min(l)));
            }
        }
        if let Some(l) = min_consumer {
            prio[node.id.0] = l.saturating_sub(node.op.latency());
        }
    }
    prio
}

pub(crate) fn is_phi_class(op: Opcode) -> bool {
    matches!(op, Opcode::Phi | Opcode::FusedPhiAdd | Opcode::FusedPhiAddAdd)
}

/// The per-DFG inputs of every placement attempt that do not depend on the
/// attempt's RNG stream. [`super::SearchGrid::prepare`] builds one per grid
/// and every cell borrows it; [`super::repair_mapping`] builds its own.
pub(crate) struct PlacerCtx {
    /// Scheduling priority per node ([`priorities`]).
    levels: Vec<u32>,
    /// Per node: the jitter-free part of its placement-order key,
    /// `level << 40 | φ << 39 | node` ([`PlacerCtx::order`]).
    order_keys: Vec<u64>,
    /// Same-iteration consumer ids per producer, in node/input order.
    consumers: Adjacency<u32>,
    /// Carried `(consumer, distance)` pairs per producer.
    carried: Adjacency<(u32, u32)>,
    /// Alive tiles able to run each distinct opcode of the DFG, in index
    /// order.
    capable: Adjacency<u32>,
    /// Per node: its opcode's set in `capable`.
    capable_of: Vec<u32>,
}

/// Per-producer edge lists in one flat buffer: producer `v` owns
/// `items[start[v]..start[v + 1]]`. Every grid of a compile batch keeps its
/// context until the batch resolves, so the context stays a handful of
/// compact allocations.
struct Adjacency<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Adjacency<T> {
    /// Groups `(producer, item)` pairs by producer, keeping their order
    /// within a producer.
    fn new(n: usize, mut pairs: Vec<(usize, T)>) -> Adjacency<T> {
        pairs.sort_by_key(|&(p, _)| p); // stable
        let mut start = vec![0u32; n + 1];
        for &(p, _) in &pairs {
            start[p + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        Adjacency { start, items: pairs.into_iter().map(|(_, t)| t).collect() }
    }

    fn of(&self, v: usize) -> &[T] {
        &self.items[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

impl PlacerCtx {
    pub(crate) fn new(dfg: &Dfg, spec: &CgraSpec, mask: &ResourceMask) -> PlacerCtx {
        let mut consumers = Vec::new();
        let mut carried = Vec::new();
        let mut ops: Vec<Opcode> = Vec::new();
        let mut capable = Vec::new();
        let mut capable_of = Vec::with_capacity(dfg.len());
        for node in dfg.nodes() {
            let set = match ops.iter().position(|&op| op == node.op) {
                Some(i) => i,
                None => {
                    let set = ops.len();
                    ops.push(node.op);
                    capable.extend(
                        (0..spec.len())
                            .filter(|&t| mask.tile_alive(t) && spec.tile_supports(t, node.op))
                            .map(|t| (set, t as u32)),
                    );
                    set
                }
            };
            capable_of.push(set as u32);
            for e in &node.inputs {
                let v = node.id.0 as u32;
                if e.distance == 0 {
                    consumers.push((e.from.0, v));
                } else {
                    carried.push((e.from.0, (v, e.distance)));
                }
            }
        }
        let levels = priorities(dfg);
        debug_assert!(dfg.len() < 1 << 24 && levels.iter().all(|&l| l < 1 << 24));
        let order_keys = dfg
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                u64::from(levels[i]) << 40 | u64::from(is_phi_class(node.op)) << 39 | i as u64
            })
            .collect();
        PlacerCtx {
            levels,
            order_keys,
            consumers: Adjacency::new(dfg.len(), consumers),
            carried: Adjacency::new(dfg.len(), carried),
            capable: Adjacency::new(ops.len(), capable),
            capable_of,
        }
    }

    /// Alive tiles able to run node `v`, in index order.
    fn capable(&self, v: usize) -> &[u32] {
        self.capable.of(self.capable_of[v] as usize)
    }

    /// Same-iteration consumers of `v`, in node/input order.
    fn consumers_of(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.consumers.of(v).iter().map(|&c| c as usize)
    }

    /// Carried `(consumer, distance)` edges out of `v`.
    fn carried_out(&self, v: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.carried.of(v).iter().map(|&(c, d)| (c as usize, d))
    }

    /// The placement order of one attempt: deferred level ascending; within
    /// a level, φ nodes go last so the *other* inputs of their consumers
    /// are already placed when the φ's dynamic start time is computed;
    /// random tiebreak otherwise. Draws exactly one jitter per node, in
    /// node order.
    ///
    /// Each node's key packs `level << 40 | φ << 39 | jitter << 24 | node`
    /// into one word. The node id makes every key distinct, so the
    /// unstable sort yields the stable sort by `(level, φ, jitter)` over
    /// node ids.
    fn order(&self, rng: &mut TestRng) -> Vec<usize> {
        let mut keys: Vec<u64> = self
            .order_keys
            .iter()
            .map(|&k| k | u64::from(rng.gen_range(0u32..1000)) << 24)
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|k| (k & 0xff_ffff) as usize).collect()
    }

    /// Dynamic start of a source node `v` (φ, const, invariant loads):
    /// aligned with the actual times of its consumers' other inputs, so the
    /// φ of a reduction sits right where its update will fire, not at
    /// time 0.
    fn source_floor(&self, dfg: &Dfg, v: usize, placed: &[Option<Placement>]) -> u32 {
        let lat = dfg.nodes()[v].op.latency();
        let mut floor = self.levels[v];
        for c in self.consumers_of(v) {
            for e in &dfg.nodes()[c].inputs {
                if e.distance == 0 && e.from.0 != v {
                    if let Some(p) = placed[e.from.0] {
                        let rdy = p.time + dfg.nodes()[e.from.0].op.latency();
                        floor = floor.max(rdy.saturating_sub(lat));
                    }
                }
            }
        }
        floor
    }
}

pub(crate) fn try_place(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    ii: u32,
    rng: &mut TestRng,
    ctx: &PlacerCtx,
) -> Option<Vec<Placement>> {
    let st = State::new(spec, mask, ii);
    let placed: Vec<Option<Placement>> = vec![None; dfg.len()];
    place_rest(dfg, spec, mask, ii, rng, ctx, st, placed, false)
}

/// Validates a set of pinned placements against `mask` and builds the
/// occupancy [`State`] they imply: compute slots of every pinned node, plus
/// the (possibly detoured) routes of every distance-0 edge between two
/// pinned nodes. Carried edges between pinned nodes are checked against the
/// recurrence deadline with the masked hop count.
///
/// On the first violation, returns `Err(consumer_node_id)` — the node the
/// incremental repair must un-pin and re-place. Checks run in node-id order
/// with inputs in declaration order, so the identified node is
/// deterministic.
pub(crate) fn pin_state<'a>(
    dfg: &Dfg,
    spec: &'a CgraSpec,
    mask: &'a ResourceMask,
    ii: u32,
    pinned: &[Option<Placement>],
) -> Result<State<'a>, usize> {
    let mut st = State::new(spec, mask, ii);
    let mut routes: Vec<(usize, usize, u32)> = Vec::new();
    for node in dfg.nodes() {
        let Some(pv) = pinned[node.id.0] else { continue };
        if !mask.tile_alive(pv.tile) || !spec.tile_supports(pv.tile, node.op) {
            return Err(node.id.0);
        }
        let slot = st.idx(pv.tile, pv.time);
        if st.compute[slot] {
            return Err(node.id.0);
        }
        st.compute[slot] = true;
    }
    for node in dfg.nodes() {
        let Some(pv) = pinned[node.id.0] else { continue };
        // check every operand route against the pre-commit state, then
        // commit them together — the same per-consumer batching the search
        // uses, so any search-accepted placement re-validates here
        routes.clear();
        for e in &node.inputs {
            let Some(pu) = pinned[e.from.0] else { continue };
            let lat = dfg.nodes()[e.from.0].op.latency();
            let Some(h) = mask.hops(spec, pu.tile, pv.tile) else {
                return Err(node.id.0);
            };
            if e.distance == 0 {
                // operand must arrive exactly at the consumer's issue time
                let Some(depart) = pv.time.checked_sub(h) else {
                    return Err(node.id.0);
                };
                if depart < pu.time + lat || !st.route_free(pu.tile, pv.tile, depart) {
                    return Err(node.id.0);
                }
                routes.push((pu.tile, pv.tile, depart));
            } else if pu.time + lat + h > pv.time + e.distance * ii {
                return Err(node.id.0);
            }
        }
        for &(from, to, depart) in &routes {
            st.route_commit(from, to, depart);
        }
    }
    Ok(st)
}

/// The placement engine shared by the from-scratch search and incremental
/// repair: places every node without a placement, in priority order, into
/// the pre-populated `st`/`placed`.
///
/// `repair` enables two extra candidate filters that only arise when some
/// nodes are already placed *ahead* of the priority order (pinned by
/// [`super::repair_mapping`]): a node being placed must route its operand to
/// every already-placed distance-0 consumer on time, and must satisfy
/// carried-edge deadlines from already-placed producers. Both are vacuous on
/// the from-scratch path, but they stay gated behind `repair` so the healthy
/// search remains bit-identical to its historical behavior (healthy
/// mappings are anchored by golden tests and the fault oracle).
#[allow(clippy::too_many_arguments)]
pub(crate) fn place_rest(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    ii: u32,
    rng: &mut TestRng,
    ctx: &PlacerCtx,
    mut st: State<'_>,
    mut placed: Vec<Option<Placement>>,
    repair: bool,
) -> Option<Vec<Placement>> {
    let order = ctx.order(rng);
    // per-node scratch, reused across the nodes of this attempt
    let mut preds: Vec<(usize, u32)> = Vec::new();
    let mut pred_hops: Vec<u32> = Vec::new();
    let mut tiles: Vec<usize> = Vec::with_capacity(spec.len());
    for &v in &order {
        if placed[v].is_some() {
            continue; // pinned by the repair path
        }
        let node = &dfg.nodes()[v];
        // earliest start from same-iteration predecessors (per-tile addend
        // for hops is applied per candidate below). The priority order is
        // topological over distance-0 edges, so predecessors are placed; if
        // that invariant ever breaks, the attempt fails instead of panicking.
        preds.clear();
        for e in node.inputs.iter().filter(|e| e.distance == 0) {
            let p = placed[e.from.0]?;
            preds.push((p.tile, p.time + dfg.nodes()[e.from.0].op.latency()));
        }
        let dynamic_floor = if preds.is_empty() { ctx.source_floor(dfg, v, &placed) } else { 0 };

        tiles.clear();
        tiles.extend(ctx.capable(v).iter().map(|&t| t as usize));
        rng.shuffle(&mut tiles);

        let mut placed_here = false;
        'tile: for &tile in &tiles {
            // hop distance from every placed predecessor; a predecessor
            // disconnected from this tile on the alive fabric rules the
            // tile out entirely.
            pred_hops.clear();
            for &(pt, _) in &preds {
                match mask.hops(spec, pt, tile) {
                    Some(h) => pred_hops.push(h),
                    None => continue 'tile,
                }
            }
            let earliest = preds
                .iter()
                .zip(&pred_hops)
                .map(|(&(_, rdy), &h)| rdy + h)
                .max()
                .unwrap_or(dynamic_floor);
            for dt in 0..ii {
                let t = earliest + dt;
                if st.compute[st.idx(tile, t)] {
                    continue;
                }
                // routing from each predecessor
                let routes_ok = preds.iter().zip(&pred_hops).all(|(&(pt, rdy), &h)| {
                    // operand departs when ready; slack waits at source reg
                    let depart = t - h; // arrive exactly at t
                    depart >= rdy && st.route_free(pt, tile, depart)
                });
                if !routes_ok {
                    continue;
                }
                // carried-consumer deadlines (consumers already placed)
                let deadlines_ok = ctx.carried_out(v).all(|(c, d)| {
                    match placed[c] {
                        Some(pc) => match mask.hops(spec, tile, pc.tile) {
                            Some(h) => t + node.op.latency() + h <= pc.time + d * ii,
                            None => false,
                        },
                        None => true,
                    }
                });
                if !deadlines_ok {
                    continue;
                }
                if repair {
                    // pinned distance-0 consumers: the operand must leave
                    // this candidate slot in time to arrive exactly at the
                    // consumer's (fixed) issue time, over a free route
                    let pinned_consumers_ok = ctx.consumers_of(v).all(|c| {
                        let Some(pc) = placed[c] else { return true };
                        let Some(h) = mask.hops(spec, tile, pc.tile) else { return false };
                        match pc.time.checked_sub(h) {
                            Some(depart) => {
                                depart >= t + node.op.latency()
                                    && st.route_free(tile, pc.tile, depart)
                            }
                            None => false,
                        }
                    });
                    if !pinned_consumers_ok {
                        continue;
                    }
                    // carried inputs from already-placed producers (the
                    // from-scratch path defers these to final verification;
                    // filtering here lets repair try other slots instead of
                    // failing the whole attempt)
                    let carried_in_ok =
                        node.inputs.iter().filter(|e| e.distance > 0).all(|e| {
                            let Some(pu) = placed[e.from.0] else { return true };
                            match mask.hops(spec, pu.tile, tile) {
                                Some(h) => {
                                    pu.time + dfg.nodes()[e.from.0].op.latency() + h
                                        <= t + e.distance * ii
                                }
                                None => false,
                            }
                        });
                    if !carried_in_ok {
                        continue;
                    }
                }
                // commit
                let i = st.idx(tile, t);
                st.compute[i] = true;
                for (&(pt, _), &h) in preds.iter().zip(&pred_hops) {
                    let depart = t - h;
                    st.route_commit(pt, tile, depart);
                }
                if repair {
                    for c in ctx.consumers_of(v) {
                        if let Some(pc) = placed[c] {
                            if let Some(h) = mask.hops(spec, tile, pc.tile) {
                                st.route_commit(tile, pc.tile, pc.time - h);
                            }
                        }
                    }
                }
                placed[v] = Some(Placement { node: NodeId(v), tile, time: t });
                placed_here = true;
                break 'tile;
            }
        }
        if !placed_here {
            return None;
        }
    }

    // final recurrence verification (covers consumer-placed-after-producer)
    verify_recurrences(dfg, spec, mask, ii, &placed)?;
    placed.into_iter().collect()
}

/// Final recurrence check shared by both placement engines: every carried
/// edge must meet its deadline under the masked (shortest-path) hop count.
fn verify_recurrences(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    ii: u32,
    placed: &[Option<Placement>],
) -> Option<()> {
    for node in dfg.nodes() {
        for e in &node.inputs {
            if e.distance > 0 {
                let pu = placed[e.from.0]?;
                let pv = placed[node.id.0]?;
                let lat = dfg.nodes()[e.from.0].op.latency();
                let hops = mask.hops(spec, pu.tile, pv.tile)?;
                if pu.time + lat + hops > pv.time + e.distance * ii {
                    return None;
                }
            }
        }
    }
    Some(())
}

/// Completes a partial placement: builds the occupancy state the pinned
/// nodes imply (failing on the node `pin_state` identifies) and places the
/// rest with the repair-mode candidate filters enabled.
pub(crate) fn try_place_pinned(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    ii: u32,
    rng: &mut TestRng,
    ctx: &PlacerCtx,
    pinned: &[Option<Placement>],
) -> Option<Vec<Placement>> {
    let st = pin_state(dfg, spec, mask, ii, pinned).ok()?;
    place_rest(dfg, spec, mask, ii, rng, ctx, st, pinned.to_vec(), true)
}

// ---------------------------------------------------------------------------
// annealed placement (large fabrics)

/// Hop cost of an unreachable tile pair in the SA cost function: large
/// enough that any reachable assignment dominates, small enough that sums
/// never overflow.
const UNREACHABLE_COST: u64 = 1 << 20;
/// Weight of the channel-congestion estimate relative to wirelength.
const CONGESTION_WEIGHT: u64 = 4;
/// Upper bound on SA moves per attempt — keeps one portfolio cell cheap and
/// its runtime deterministic-ish; the portfolio's randomized restarts supply
/// the diversity a longer anneal would.
const MOVE_CAP: usize = 8_000;

/// One Place→Route evaluation of the annealed pipeline: SA tile assignment,
/// modulo list scheduling on the fixed tiles, then the congestion router as
/// the acceptance gate. Returns the placements only when the [`super::route`]
/// pass proves the mapping fits the per-link channel capacities (with
/// register folding applied) — the portfolio then owns retries at other
/// seeds and IIs.
pub(crate) fn try_place_annealed(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    ii: u32,
    rng: &mut TestRng,
    ctx: &PlacerCtx,
) -> Option<Vec<Placement>> {
    let tiles = anneal_tiles(dfg, spec, mask, ii, rng, ctx)?;
    let placements = schedule_on_tiles(dfg, spec, mask, ii, rng, ctx, &tiles)?;
    let routes = super::route::route_mapping(dfg, spec, mask, ii, &placements)?;
    routes.congestion_free().then_some(placements)
}

/// The edge list the SA cost function scores: `(producer, consumer, d0)`.
fn cost_edges(dfg: &Dfg) -> Vec<(usize, usize, bool)> {
    let mut edges = Vec::new();
    for node in dfg.nodes() {
        for e in &node.inputs {
            edges.push((e.from.0, node.id.0, e.distance == 0));
        }
    }
    edges
}

fn hop_cost(h: Option<u32>) -> u64 {
    h.map_or(UNREACHABLE_COST, u64::from)
}

/// Simulated-annealing tile assignment (cgra_pnr-style placement).
///
/// * **State**: one capable alive tile per node, at most `II` nodes per tile
///   (one per compute slot).
/// * **Initial state**: the greedy priority order of the historical placer
///   (deferred ASAP levels, φ-last, seeded jitter), each node taking the
///   capable tile minimizing wirelength to its already-assigned neighbours —
///   the "current greedy order" as the anneal's starting point.
/// * **Cost**: Σ estimated route length (masked shortest-path hops of every
///   edge) + [`CONGESTION_WEIGHT`] · Σ per-tile pass-through pressure beyond
///   the tile's `ROUTE_CAP · II` routing slots (estimated from the canonical
///   path of every distance-0 edge).
/// * **Moves**: re-place a uniformly random node on a uniformly random
///   capable tile with a free compute slot.
/// * **Acceptance**: downhill always; uphill with probability `T / (T + Δ)`
///   — a rational schedule (no `exp`, so no libm variance across platforms),
///   monotone in both temperature and Δ like the Metropolis rule.
/// * **Cooling**: geometric, `T ← 7T/10` every `max(32, 4n)` moves, from
///   `T₀ = initial cost / 4`, capped at [`MOVE_CAP`] total moves.
fn anneal_tiles(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    ii: u32,
    rng: &mut TestRng,
    ctx: &PlacerCtx,
) -> Option<Vec<usize>> {
    let n = dfg.len();
    if (0..n).any(|v| ctx.capable(v).is_empty()) {
        return None;
    }
    let cap_per_tile = ii as usize;
    let edges = cost_edges(dfg);
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, &(u, v, _)) in edges.iter().enumerate() {
        incident[u].push(ei);
        if v != u {
            incident[v].push(ei);
        }
    }

    // initial state: greedy wirelength in the historical priority order
    let order = ctx.order(rng);
    let mut tiles: Vec<usize> = vec![usize::MAX; n];
    let mut count = vec![0usize; spec.len()];
    for &v in &order {
        let mut best: Option<(u64, usize)> = None;
        for t in ctx.capable(v).iter().map(|&t| t as usize) {
            if count[t] >= cap_per_tile {
                continue;
            }
            let mut c = 0u64;
            for &ei in &incident[v] {
                let (a, b, _) = edges[ei];
                let o = if a == v { b } else { a };
                if o != v && tiles[o] != usize::MAX {
                    let (from, to) = if a == v { (t, tiles[o]) } else { (tiles[o], t) };
                    c += hop_cost(mask.hops(spec, from, to));
                }
            }
            if best.is_none_or(|(bc, bt)| (c, t) < (bc, bt)) {
                best = Some((c, t));
            }
        }
        let (_, t) = best?;
        tiles[v] = t;
        count[t] += 1;
    }

    // congestion estimate: pass-through pressure per tile from the canonical
    // path of every distance-0 edge, vs ROUTE_CAP routing slots per (tile,
    // slot) = ROUTE_CAP · II per tile
    let tile_cap = u64::from(ROUTE_CAP) * u64::from(ii);
    let mut occ = pass_through(&edges, &tiles, spec, mask);
    let wire: u64 =
        edges.iter().map(|&(u, v, _)| hop_cost(mask.hops(spec, tiles[u], tiles[v]))).sum();
    let congestion: u64 = occ.iter().map(|&o| o.saturating_sub(tile_cap)).sum();

    let mut temp = (wire + CONGESTION_WEIGHT * congestion) / 4;
    let moves_per_temp = (4 * n).max(32);
    let mut moves = 0usize;
    // tiles whose pass-through count the current move changed: the remove
    // pass's decrements, then the add pass's increments from `added` on
    let mut journal: Vec<usize> = Vec::new();
    while temp > 0 && moves < MOVE_CAP {
        for _ in 0..moves_per_temp {
            moves += 1;
            let v = rng.gen_range(0..n as u64) as usize;
            let capable = ctx.capable(v);
            let cand = capable[rng.gen_range(0..capable.len() as u64) as usize] as usize;
            let old = tiles[v];
            if cand == old || count[cand] >= cap_per_tile {
                continue;
            }
            // remove v's incident contributions, move, re-add; track Δ
            journal.clear();
            let mut delta: i64 = 0;
            delta -= contribution(&edges, &incident[v], &tiles, spec, mask, &mut occ, tile_cap, false, &mut journal);
            let added = journal.len();
            tiles[v] = cand;
            delta += contribution(&edges, &incident[v], &tiles, spec, mask, &mut occ, tile_cap, true, &mut journal);
            let accept = delta <= 0 || {
                let d = delta as u64;
                rng.gen_range(0..temp + d) < temp
            };
            if accept {
                count[old] -= 1;
                count[cand] += 1;
            } else {
                // revert by replaying the journal: the counts go back to
                // exactly what the two passes changed them from
                tiles[v] = old;
                for &t in &journal[..added] {
                    occ[t] += 1;
                }
                for &t in &journal[added..] {
                    occ[t] -= 1;
                }
            }
            if moves >= MOVE_CAP {
                break;
            }
        }
        temp = temp * 7 / 10;
    }
    debug_assert_eq!(occ, pass_through(&edges, &tiles, spec, mask), "pass-through counts drifted");
    Some(tiles)
}

/// Per-tile pass-through count of the canonical paths of every distance-0
/// edge under the tile assignment `tiles`.
fn pass_through(
    edges: &[(usize, usize, bool)],
    tiles: &[usize],
    spec: &CgraSpec,
    mask: &ResourceMask,
) -> Vec<u64> {
    let mut occ = vec![0u64; spec.len()];
    for &(u, v, _) in edges.iter().filter(|e| e.2) {
        for t in mask.path(spec, tiles[u], tiles[v]).into_iter().flatten() {
            occ[t] += 1;
        }
    }
    occ
}

/// Adds (`add = true`) or removes the cost contribution of the `incident`
/// edges under the current `tiles` assignment, updating the per-tile
/// pass-through occupancy and appending every tile it changes to
/// `journal`, and returns the signed cost (wirelength + weighted
/// congestion) of those edges.
#[allow(clippy::too_many_arguments)]
fn contribution(
    edges: &[(usize, usize, bool)],
    incident: &[usize],
    tiles: &[usize],
    spec: &CgraSpec,
    mask: &ResourceMask,
    occ: &mut [u64],
    tile_cap: u64,
    add: bool,
    journal: &mut Vec<usize>,
) -> i64 {
    let mut cost = 0i64;
    for &ei in incident {
        let (u, w, d0) = edges[ei];
        cost += hop_cost(mask.hops(spec, tiles[u], tiles[w])) as i64;
        if d0 {
            if let Some(path) = mask.path(spec, tiles[u], tiles[w]) {
                for t in path {
                    journal.push(t);
                    if add {
                        occ[t] += 1;
                        if occ[t] > tile_cap {
                            cost += CONGESTION_WEIGHT as i64;
                        }
                    } else {
                        if occ[t] > tile_cap {
                            cost += CONGESTION_WEIGHT as i64;
                        }
                        occ[t] -= 1;
                    }
                }
            }
        }
    }
    cost
}

/// Modulo list scheduling on a fixed tile assignment: the greedy placer's
/// priority order and timing rules with the tile choice already made by the
/// anneal.
///
/// The scheduler is *channel-aware*: when picking a slot it charges every
/// distance-0 input edge's canonical path against the Route pass's
/// per-(directed link, slot) [`super::route::CHANNEL_CAP`] and skips slots
/// that would oversubscribe a channel. This matters because issue times fix
/// the routing slots — an operand arrives *exactly* at its consumer's issue
/// cycle, so the router can spread congestion across paths but not across
/// slots; a slot-blind schedule on a tightly-packed annealed placement
/// concentrates adjacent-tile traffic into unfixable (link, slot)
/// collisions. The check is conservative (no folding credit) and the
/// [`super::route`] pass stays the final gate.
#[allow(clippy::too_many_arguments)]
fn schedule_on_tiles(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    ii: u32,
    rng: &mut TestRng,
    ctx: &PlacerCtx,
    tiles: &[usize],
) -> Option<Vec<Placement>> {
    let order = ctx.order(rng);
    let mut compute = vec![false; spec.len() * ii as usize];
    let slot_of = |tile: usize, t: u32| tile * ii as usize + (t % ii) as usize;
    // canonical-path channel occupancy per (directed link, slot)
    let mut channels = vec![0u32; link_slots(spec, ii)];
    let mut placed: Vec<Option<Placement>> = vec![None; dfg.len()];
    // (producer tile, hop count, canonical path) per d0 input that crosses
    // the mesh; reused across nodes
    let mut in_paths: Vec<(usize, u32, PathWalk<'_>)> = Vec::new();
    for &v in &order {
        let node = &dfg.nodes()[v];
        let tile = tiles[v];
        in_paths.clear();
        let mut latest_rdy: Option<u32> = None;
        for e in node.inputs.iter().filter(|e| e.distance == 0) {
            let p = placed[e.from.0]?;
            let h = mask.hops(spec, p.tile, tile)?;
            let rdy = p.time + dfg.nodes()[e.from.0].op.latency() + h;
            latest_rdy = Some(latest_rdy.map_or(rdy, |l| l.max(rdy)));
            if h > 0 {
                in_paths.push((p.tile, h, mask.path(spec, p.tile, tile)?));
            }
        }
        // source nodes align with their consumers' other inputs, as in the
        // greedy placer's dynamic floor
        let earliest = latest_rdy.unwrap_or_else(|| ctx.source_floor(dfg, v, &placed));
        let mut done = false;
        for dt in 0..ii {
            let t = earliest + dt;
            if compute[slot_of(tile, t)] {
                continue;
            }
            let deadlines_ok = ctx.carried_out(v).all(|(c, d)| match placed[c] {
                Some(pc) => match mask.hops(spec, tile, pc.tile) {
                    Some(h) => t + node.op.latency() + h <= pc.time + d * ii,
                    None => false,
                },
                None => true,
            });
            if !deadlines_ok {
                continue;
            }
            // charge each input's canonical path: operands arrive exactly at
            // t, so hop j of an h-hop path occupies its link at slot
            // (t − h + j) mod ii — full if the router could not legally
            // absorb another operand there
            let channel = |from: usize, to: usize, h: u32, j: usize| {
                link_slot(spec, ii, from, to, (t - h + j as u32) % ii)
            };
            let channels_ok = in_paths.iter().all(|(from, h, path)| {
                route_links(*from, path.clone(), tile)
                    .enumerate()
                    .all(|(j, (a, b))| channels[channel(a, b, *h, j)] < CHANNEL_CAP)
            });
            if !channels_ok {
                continue;
            }
            for (from, h, path) in &in_paths {
                for (j, (a, b)) in route_links(*from, path.clone(), tile).enumerate() {
                    channels[channel(a, b, *h, j)] += 1;
                }
            }
            compute[slot_of(tile, t)] = true;
            placed[v] = Some(Placement { node: NodeId(v), tile, time: t });
            done = true;
            break;
        }
        if !done {
            return None;
        }
    }
    verify_recurrences(dfg, spec, mask, ii, &placed)?;
    placed.into_iter().collect()
}

/// The directed links of one route as consecutive `(from, to)` tile pairs:
/// `from`, the path's intermediate tiles, then `to`.
fn route_links(
    from: usize,
    path: PathWalk<'_>,
    to: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    path.chain(std::iter::once(to)).scan(from, |prev, t| Some((std::mem::replace(prev, t), t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{fuse_patterns, lower_special_ops, unroll};
    use picachu_ir::kernels::kernel_library;

    /// The placement order as the placer used to compute it: a stable sort
    /// of node ids by `(level, φ-last, jitter)`, re-deriving the key from
    /// `dfg.nodes()` on every comparison.
    fn legacy_order(ctx: &PlacerCtx, dfg: &Dfg, rng: &mut TestRng) -> Vec<usize> {
        let n = dfg.len();
        let mut order: Vec<usize> = (0..n).collect();
        let jitter: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
        order.sort_by_key(|&i| (ctx.levels[i], is_phi_class(dfg.nodes()[i].op), jitter[i]));
        order
    }

    #[test]
    fn order_matches_legacy_stable_sort() {
        let spec = CgraSpec::picachu(4, 4);
        let mask = ResourceMask::full(&spec);
        let mut dfgs = 0;
        for k in kernel_library(4) {
            for l in &k.loops {
                for uf in [1, 2, 4, 8] {
                    let unrolled = unroll(&l.dfg, uf);
                    for dfg in [fuse_patterns(&unrolled), lower_special_ops(&unrolled)] {
                        dfgs += 1;
                        let ctx = PlacerCtx::new(&dfg, &spec, &mask);
                        for seed in 0..8u64 {
                            let mut a = TestRng::seed_from_u64(seed);
                            let mut b = TestRng::seed_from_u64(seed);
                            let got = ctx.order(&mut a);
                            assert_eq!(got, legacy_order(&ctx, &dfg, &mut b), "{} uf {uf}", l.label);
                            assert_eq!(a.next_u64(), b.next_u64(), "{} uf {uf}: RNG stream", l.label);
                        }
                    }
                }
            }
        }
        assert!(dfgs > 50, "{dfgs} DFGs");
    }
}
