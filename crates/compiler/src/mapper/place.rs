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
//!   Place pass with pinned placements). Its occupancy is a set of bit
//!   planes over the II residues ([`State`]), so a node's slot search on one
//!   tile is a few word operations per route hop covering every candidate
//!   cycle, not one probe per cycle.
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

// Routing occupancy is kept as two planes, "at least one operand" (`used`)
// and "at least two" (`full`), which count exactly up to a capacity of two.
const _: () = assert!(ROUTE_CAP == 2, "State's used/full planes encode ROUTE_CAP = 2");

/// Occupancy of the time-extended fabric modulo II, as bit planes: per tile,
/// one bit per residue `0..II` in each of
///
/// * `busy` — the tile's compute slot is taken;
/// * `used` — at least one routed operand passes through the tile;
/// * `full` — [`ROUTE_CAP`] operands do, so no further route may.
///
/// A tile's plane stores its `II` bits twice over (bits `q` and `q + II`)
/// in `2·⌈II/64⌉` words. The `II` bits starting at any residue `r` — the
/// plane rotated right by `r` — are then one straight read ([`window`]),
/// so a slot search shifts words instead of reducing each cycle modulo II.
/// Every II takes the same code path; past 64 a window spans more words.
pub(crate) struct State<'a> {
    mask: &'a ResourceMask,
    ii: u32,
    /// Words in one window of `II` bits: `⌈II/64⌉`.
    words: usize,
    busy: Vec<u64>,
    used: Vec<u64>,
    full: Vec<u64>,
}

impl<'a> State<'a> {
    pub(crate) fn new(spec: &'a CgraSpec, mask: &'a ResourceMask, ii: u32) -> State<'a> {
        let words = (ii as usize).div_ceil(64);
        let len = spec.len() * 2 * words;
        State { mask, ii, words, busy: vec![0; len], used: vec![0; len], full: vec![0; len] }
    }

    /// The words of `tile` in each plane.
    fn span(&self, tile: usize) -> std::ops::Range<usize> {
        let stride = 2 * self.words;
        tile * stride..(tile + 1) * stride
    }

    /// The residue of cycle `time`.
    fn residue(&self, time: u32) -> u32 {
        time % self.ii
    }

    /// The residue after `q`.
    fn next(&self, q: u32) -> u32 {
        if q + 1 == self.ii {
            0
        } else {
            q + 1
        }
    }

    /// `(q + delta) mod II` for a residue `q` and a `delta` no larger than a
    /// route's hop count: steps by whole IIs instead of dividing.
    fn shift(&self, q: u32, delta: i64) -> u32 {
        let ii = i64::from(self.ii);
        let mut s = i64::from(q) + delta;
        while s < 0 {
            s += ii;
        }
        while s >= ii {
            s -= ii;
        }
        s as u32
    }

    fn busy_at(&self, tile: usize, q: u32) -> bool {
        bit(&self.busy[self.span(tile)], q)
    }

    fn take_compute(&mut self, tile: usize, q: u32) {
        let span = self.span(tile);
        set_bit(&mut self.busy[span], self.ii, q);
    }

    /// Whether an operand routed `from → to` whose first intermediate tile
    /// it crosses at residue `q` finds every intermediate tile below
    /// [`ROUTE_CAP`]; `false` when the pair is disconnected on the alive
    /// fabric.
    fn route_free(&self, from: usize, to: usize, mut q: u32) -> bool {
        let Some(mut path) = self.mask.path(from, to) else {
            return false;
        };
        path.all(|tile| {
            let free = !bit(&self.full[self.span(tile)], q);
            q = self.next(q);
            free
        })
    }

    /// Adds one operand to every intermediate tile of the route `from → to`,
    /// the first crossed at residue `q`.
    fn route_commit(&mut self, from: usize, to: usize, mut q: u32) {
        let Some(path) = self.mask.path(from, to) else {
            return; // unreachable: every committed pair has a hop count
        };
        for tile in path {
            let span = self.span(tile);
            let (used, full) = (&mut self.used[span.clone()], &mut self.full[span]);
            for b in [q, q + self.ii] {
                // a second operand fills the slot, a first one uses it
                let (w, m) = ((b >> 6) as usize, 1 << (b & 63));
                full[w] |= used[w] & m;
                used[w] |= m;
            }
            q = self.next(q);
        }
    }

    /// Writes into `blocked` the compute occupancy of `tile` from residue
    /// `start` on: bit `d` is set when slot `start + d` is taken.
    fn block_compute(&self, tile: usize, start: u32, blocked: &mut [u64]) {
        let plane = &self.busy[self.span(tile)];
        for (i, b) in blocked.iter_mut().enumerate() {
            *b = window(plane, start, i);
        }
    }

    /// ORs into `blocked` the candidates at which the route `from → to`
    /// would cross a full tile: at candidate `d` the route crosses its
    /// first intermediate tile at residue `r + d`, its next at `r + d + 1`,
    /// and so on. One walk of the path covers every candidate.
    fn block_route(&self, from: usize, to: usize, mut r: u32, blocked: &mut [u64]) {
        let Some(path) = self.mask.path(from, to) else {
            return; // callers only route pairs with a hop count
        };
        for tile in path {
            let plane = &self.full[self.span(tile)];
            for (i, b) in blocked.iter_mut().enumerate() {
                *b |= window(plane, r, i);
            }
            r = self.next(r);
        }
    }
}

/// Bit `q` of one tile's plane.
fn bit(plane: &[u64], q: u32) -> bool {
    plane[(q >> 6) as usize] >> (q & 63) & 1 == 1
}

/// Sets residue `q` in both copies of one tile's plane.
fn set_bit(plane: &mut [u64], ii: u32, q: u32) {
    for b in [q, q + ii] {
        plane[(b >> 6) as usize] |= 1 << (b & 63);
    }
}

/// Word `i` of the `II` bits of one tile's plane that start at residue `r`:
/// plane bits `r + 64i ..` of the doubled copy. Bits past `II` in the last
/// word are noise; [`free_slots`] masks them.
fn window(plane: &[u64], r: u32, i: usize) -> u64 {
    let w = (r >> 6) as usize + i;
    let pair = u128::from(plane[w + 1]) << 64 | u128::from(plane[w]);
    (pair >> (r & 63)) as u64
}

/// The clear bits `d < ii` of `blocked`, ascending: the candidate offsets a
/// slot search tries, in the order a scan of `dt = 0..II` would.
fn free_slots(blocked: &[u64], ii: u32) -> impl Iterator<Item = u32> + '_ {
    blocked.iter().enumerate().flat_map(move |(i, &b)| {
        let base = 64 * i as u32;
        let valid = if ii - base >= 64 { u64::MAX } else { (1 << (ii - base)) - 1 };
        let mut free = !b & valid;
        std::iter::from_fn(move || {
            (free != 0).then(|| {
                let d = free.trailing_zeros();
                free &= free - 1;
                base + d
            })
        })
    })
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
        let q = st.residue(pv.time);
        if st.busy_at(pv.tile, q) {
            return Err(node.id.0);
        }
        st.take_compute(pv.tile, q);
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
            let Some(h) = mask.hops(pu.tile, pv.tile) else {
                return Err(node.id.0);
            };
            if e.distance == 0 {
                // operand must arrive exactly at the consumer's issue time
                let Some(depart) = pv.time.checked_sub(h) else {
                    return Err(node.id.0);
                };
                let q = st.residue(depart + 1);
                if depart < pu.time + lat || !st.route_free(pu.tile, pv.tile, q) {
                    return Err(node.id.0);
                }
                routes.push((pu.tile, pv.tile, q));
            } else if pu.time + lat + h > pv.time + e.distance * ii {
                return Err(node.id.0);
            }
        }
        for &(from, to, q) in &routes {
            st.route_commit(from, to, q);
        }
    }
    Ok(st)
}

/// The placement engine shared by the from-scratch search and incremental
/// repair: places every node without a placement, in priority order, into
/// the pre-populated `st`/`placed`.
///
/// A node tries its capable tiles in a shuffled order. On one tile its `II`
/// candidate cycles `earliest + dt` are searched together: the tile's
/// `busy` window ORed with the `full` windows along every operand route,
/// each read at the residue the route would cross it, leaves a clear bit for
/// each candidate whose compute slot and routes are free. The clear bits are
/// tried in `dt` order against the remaining filters, so the chosen
/// `(tile, time)` is the one a probe of every `dt` in turn would pick.
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
    let mut rdy_residues: Vec<u32> = Vec::new();
    let mut tiles: Vec<usize> = Vec::with_capacity(spec.len());
    let mut blocked = vec![0u64; st.words];
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
        rdy_residues.clear();
        rdy_residues.extend(preds.iter().map(|&(_, rdy)| st.residue(rdy)));
        let dynamic_floor = if preds.is_empty() { ctx.source_floor(dfg, v, &placed) } else { 0 };
        let floor_residue = st.residue(dynamic_floor);

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
                match mask.hops(pt, tile) {
                    Some(h) => pred_hops.push(h),
                    None => continue 'tile,
                }
            }
            // the earliest issue cycle and its residue `start`: candidate
            // `dt` is cycle `earliest + dt`, slot `start + dt`
            let (mut earliest, mut start) = (dynamic_floor, floor_residue);
            for (j, (&(_, rdy), &h)) in preds.iter().zip(&pred_hops).enumerate() {
                if j == 0 || rdy + h > earliest {
                    (earliest, start) = (rdy + h, st.shift(rdy_residues[j], i64::from(h)));
                }
            }
            // every candidate at once: the slot's compute bit, then each
            // operand route. An h-hop route arriving at `t` crosses its
            // k-th intermediate tile at `t − h + k + 1`.
            st.block_compute(tile, start, &mut blocked);
            for (&(pt, _), &h) in preds.iter().zip(&pred_hops) {
                st.block_route(pt, tile, st.shift(start, 1 - i64::from(h)), &mut blocked);
            }
            for dt in free_slots(&blocked, ii) {
                let t = earliest + dt;
                // operands depart when ready; slack waits at source reg
                debug_assert!(preds.iter().zip(&pred_hops).all(|(&(_, rdy), &h)| t - h >= rdy));
                // carried-consumer deadlines (consumers already placed)
                let deadlines_ok = ctx.carried_out(v).all(|(c, d)| {
                    match placed[c] {
                        Some(pc) => match mask.hops(tile, pc.tile) {
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
                        let Some(h) = mask.hops(tile, pc.tile) else { return false };
                        match pc.time.checked_sub(h) {
                            Some(depart) => {
                                depart >= t + node.op.latency()
                                    && st.route_free(tile, pc.tile, st.residue(depart + 1))
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
                            match mask.hops(pu.tile, tile) {
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
                let q = st.shift(start, i64::from(dt));
                st.take_compute(tile, q);
                for (&(pt, _), &h) in preds.iter().zip(&pred_hops) {
                    st.route_commit(pt, tile, st.shift(q, 1 - i64::from(h)));
                }
                if repair {
                    for c in ctx.consumers_of(v) {
                        if let Some(pc) = placed[c] {
                            if let Some(h) = mask.hops(tile, pc.tile) {
                                st.route_commit(tile, pc.tile, st.residue(pc.time - h + 1));
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
    verify_recurrences(dfg, mask, ii, &placed)?;
    placed.into_iter().collect()
}

/// Final recurrence check shared by both placement engines: every carried
/// edge must meet its deadline under the masked (shortest-path) hop count.
fn verify_recurrences(
    dfg: &Dfg,
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
                let hops = mask.hops(pu.tile, pv.tile)?;
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
                    c += hop_cost(mask.hops(from, to));
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
        edges.iter().map(|&(u, v, _)| hop_cost(mask.hops(tiles[u], tiles[v]))).sum();
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
            delta -= contribution(&edges, &incident[v], &tiles, mask, &mut occ, tile_cap, false, &mut journal);
            let added = journal.len();
            tiles[v] = cand;
            delta += contribution(&edges, &incident[v], &tiles, mask, &mut occ, tile_cap, true, &mut journal);
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
        for t in mask.path(tiles[u], tiles[v]).into_iter().flatten() {
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
    mask: &ResourceMask,
    occ: &mut [u64],
    tile_cap: u64,
    add: bool,
    journal: &mut Vec<usize>,
) -> i64 {
    let mut cost = 0i64;
    for &ei in incident {
        let (u, w, d0) = edges[ei];
        cost += hop_cost(mask.hops(tiles[u], tiles[w])) as i64;
        if d0 {
            if let Some(path) = mask.path(tiles[u], tiles[w]) {
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
///
/// Compute slots live in the greedy placer's `busy` plane ([`State`]): one
/// window read at the residue of `earliest` lists a node's free slots in
/// `dt` order.
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
    let mut st = State::new(spec, mask, ii);
    let mut blocked = vec![0u64; st.words];
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
            let h = mask.hops(p.tile, tile)?;
            let rdy = p.time + dfg.nodes()[e.from.0].op.latency() + h;
            latest_rdy = Some(latest_rdy.map_or(rdy, |l| l.max(rdy)));
            if h > 0 {
                in_paths.push((p.tile, h, mask.path(p.tile, tile)?));
            }
        }
        // source nodes align with their consumers' other inputs, as in the
        // greedy placer's dynamic floor
        let earliest = latest_rdy.unwrap_or_else(|| ctx.source_floor(dfg, v, &placed));
        let start = st.residue(earliest);
        st.block_compute(tile, start, &mut blocked);
        let mut done = false;
        for dt in free_slots(&blocked, ii) {
            let t = earliest + dt;
            let deadlines_ok = ctx.carried_out(v).all(|(c, d)| match placed[c] {
                Some(pc) => match mask.hops(tile, pc.tile) {
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
            st.take_compute(tile, st.shift(start, i64::from(dt)));
            placed[v] = Some(Placement { node: NodeId(v), tile, time: t });
            done = true;
            break;
        }
        if !done {
            return None;
        }
    }
    verify_recurrences(dfg, mask, ii, &placed)?;
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

    /// The greedy placer as it searched before the residue planes: a
    /// per-(tile, slot) compute flag and routing count, and a scan of
    /// `dt = 0..II` that re-walks every operand route per candidate slot.
    mod legacy {
        use super::super::PlacerCtx;
        use crate::arch::CgraSpec;
        use crate::mapper::{Placement, ResourceMask, ROUTE_CAP};
        use picachu_ir::dfg::{Dfg, NodeId};
        use picachu_testkit::TestRng;

        pub(super) struct State<'a> {
            mask: &'a ResourceMask,
            ii: u32,
            compute: Vec<bool>,
            routing: Vec<u32>,
        }

        impl<'a> State<'a> {
            pub(super) fn new(spec: &'a CgraSpec, mask: &'a ResourceMask, ii: u32) -> State<'a> {
                let n = spec.len() * ii as usize;
                State { mask, ii, compute: vec![false; n], routing: vec![0; n] }
            }

            fn idx(&self, tile: usize, time: u32) -> usize {
                tile * self.ii as usize + (time % self.ii) as usize
            }

            fn route_free(&self, from: usize, to: usize, depart: u32) -> bool {
                let Some(path) = self.mask.path(from, to) else {
                    return false;
                };
                path.enumerate().all(|(k, tile)| {
                    self.routing[self.idx(tile, depart + k as u32 + 1)] < ROUTE_CAP
                })
            }

            fn route_commit(&mut self, from: usize, to: usize, depart: u32) {
                let Some(path) = self.mask.path(from, to) else { return };
                for (k, tile) in path.enumerate() {
                    let i = self.idx(tile, depart + k as u32 + 1);
                    self.routing[i] += 1;
                }
            }
        }

        pub(super) fn pin_state<'a>(
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
                routes.clear();
                for e in &node.inputs {
                    let Some(pu) = pinned[e.from.0] else { continue };
                    let lat = dfg.nodes()[e.from.0].op.latency();
                    let Some(h) = mask.hops(pu.tile, pv.tile) else {
                        return Err(node.id.0);
                    };
                    if e.distance == 0 {
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

        #[allow(clippy::too_many_arguments)]
        pub(super) fn place_rest(
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
            let mut preds: Vec<(usize, u32)> = Vec::new();
            let mut pred_hops: Vec<u32> = Vec::new();
            let mut tiles: Vec<usize> = Vec::with_capacity(spec.len());
            for &v in &order {
                if placed[v].is_some() {
                    continue;
                }
                let node = &dfg.nodes()[v];
                preds.clear();
                for e in node.inputs.iter().filter(|e| e.distance == 0) {
                    let p = placed[e.from.0]?;
                    preds.push((p.tile, p.time + dfg.nodes()[e.from.0].op.latency()));
                }
                let dynamic_floor =
                    if preds.is_empty() { ctx.source_floor(dfg, v, &placed) } else { 0 };
                tiles.clear();
                tiles.extend(ctx.capable(v).iter().map(|&t| t as usize));
                rng.shuffle(&mut tiles);
                let mut placed_here = false;
                'tile: for &tile in &tiles {
                    pred_hops.clear();
                    for &(pt, _) in &preds {
                        match mask.hops(pt, tile) {
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
                        let routes_ok = preds.iter().zip(&pred_hops).all(|(&(pt, rdy), &h)| {
                            let depart = t - h;
                            depart >= rdy && st.route_free(pt, tile, depart)
                        });
                        if !routes_ok {
                            continue;
                        }
                        let deadlines_ok = ctx.carried_out(v).all(|(c, d)| match placed[c] {
                            Some(pc) => match mask.hops(tile, pc.tile) {
                                Some(h) => t + node.op.latency() + h <= pc.time + d * ii,
                                None => false,
                            },
                            None => true,
                        });
                        if !deadlines_ok {
                            continue;
                        }
                        if repair {
                            let pinned_consumers_ok = ctx.consumers_of(v).all(|c| {
                                let Some(pc) = placed[c] else { return true };
                                let Some(h) = mask.hops(tile, pc.tile) else {
                                    return false;
                                };
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
                            let carried_in_ok =
                                node.inputs.iter().filter(|e| e.distance > 0).all(|e| {
                                    let Some(pu) = placed[e.from.0] else { return true };
                                    match mask.hops(pu.tile, tile) {
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
                        let i = st.idx(tile, t);
                        st.compute[i] = true;
                        for (&(pt, _), &h) in preds.iter().zip(&pred_hops) {
                            st.route_commit(pt, tile, t - h);
                        }
                        if repair {
                            for c in ctx.consumers_of(v) {
                                if let Some(pc) = placed[c] {
                                    if let Some(h) = mask.hops(tile, pc.tile) {
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
            super::super::verify_recurrences(dfg, mask, ii, &placed)?;
            placed.into_iter().collect()
        }
    }

    /// Greedy and repair placement on the residue planes against the
    /// per-slot scan they replace: the same placement (or failure) from the
    /// same stream, and the stream left at the same position.
    #[test]
    fn slot_masks_match_legacy_scan() {
        use crate::mapper::min_ii_with;
        let grid = CgraSpec::picachu(4, 4);
        let row = CgraSpec::picachu(1, 3);
        let fabrics = [
            (&grid, ResourceMask::full(&grid)),
            (&grid, ResourceMask::degraded(&grid, [5], [(0, 1), (10, 14)])),
            (&row, ResourceMask::full(&row)),
        ];
        let loops: Vec<_> = kernel_library(4).into_iter().flat_map(|k| k.loops).collect();
        let (mut greedy, mut repairs, mut wide) = (0, 0, 0);
        for ((spec, mask), l, uf) in fabrics
            .iter()
            .flat_map(|f| loops.iter().map(move |l| (f, l)))
            .flat_map(|(f, l)| [1, 2, 4, 8].map(|uf| (f, l, uf)))
        {
            let dfg = fuse_patterns(&unroll(&l.dfg, uf));
            let ctx = PlacerCtx::new(&dfg, spec, mask);
            let healthy = ResourceMask::full(spec);
            let healthy_ctx = PlacerCtx::new(&dfg, spec, &healthy);
            let mii = min_ii_with(&dfg, spec, mask).expect("library loops map");
            let mut iis = vec![mii, mii + 1, mii + 3, 63, 64, 65, 127, 130];
            iis.retain(|&ii| ii >= mii);
            iis.dedup();
            for (ii, seed) in iis.into_iter().flat_map(|ii| [(ii, 0), (ii, 1)]) {
                let at = format!("{} uf {uf} II {ii} seed {seed} {mask}", l.label);
                let seed = seed ^ u64::from(ii) << 8;
                let legacy_rest = |rng: &mut TestRng, st, placed, repair| {
                    legacy::place_rest(&dfg, spec, mask, ii, rng, &ctx, st, placed, repair)
                };

                let mut a = TestRng::seed_from_u64(seed);
                let mut b = TestRng::seed_from_u64(seed);
                let got = try_place(&dfg, spec, mask, ii, &mut a, &ctx);
                let empty = vec![None; dfg.len()];
                let want = legacy_rest(&mut b, legacy::State::new(spec, mask, ii), empty, false);
                assert_eq!(got, want, "greedy: {at}");
                assert_eq!(a.next_u64(), b.next_u64(), "greedy stream: {at}");
                greedy += 1;
                wide += usize::from(ii > 64 && got.is_some());

                // repair: a healthy mapping with its nodes on dead tiles and
                // a random quarter of the rest un-pinned
                let mut r = TestRng::seed_from_u64(seed);
                let Some(base) = try_place(&dfg, spec, &healthy, ii, &mut r, &healthy_ctx) else {
                    continue;
                };
                let pins: Vec<Option<Placement>> = base
                    .iter()
                    .map(|&p| (mask.tile_alive(p.tile) && r.gen_range(0u32..4) > 0).then_some(p))
                    .collect();
                let legacy_pins = legacy::pin_state(&dfg, spec, mask, ii, &pins);
                let got_pins = pin_state(&dfg, spec, mask, ii, &pins);
                assert_eq!(got_pins.as_ref().err(), legacy_pins.as_ref().err(), "pin_state: {at}");
                let Ok(legacy_st) = legacy_pins else { continue };
                let mut a = TestRng::seed_from_u64(!seed);
                let mut b = TestRng::seed_from_u64(!seed);
                let got = try_place_pinned(&dfg, spec, mask, ii, &mut a, &ctx, &pins);
                let want = legacy_rest(&mut b, legacy_st, pins, true);
                assert_eq!(got, want, "repair: {at}");
                assert_eq!(a.next_u64(), b.next_u64(), "repair stream: {at}");
                repairs += 1;
            }
        }
        assert!(greedy > 1000 && repairs > 500 && wide > 100, "{greedy} {repairs} {wide}");
    }
}
