//! Route pass: congestion-aware operand routing with per-link channel
//! capacities and PathFinder-style rip-up-and-retry.
//!
//! The legacy mapper charged routing against a per-*tile* pass-through
//! budget on the canonical (row-first / BFS) path only. This pass models the
//! mesh the way a real CGRA switchbox does: each **directed link** carries
//! [`CHANNEL_CAP`] operands per `II` slot, and an operand may take a
//! *detour* — any alive path whose length fits the edge's slack — when the
//! canonical link is saturated.
//!
//! Per edge, the router runs a deterministic shortest-path search over the
//! time-expanded alive mesh (states are `(tile, backward-step)`; the value
//! must arrive at the consumer's tile exactly at its issue time, and may
//! wait only at the producer's output register, so a path of length `L`
//! departs at `arrive − L ≥ ready`). Link costs combine a base hop cost, a
//! present-congestion penalty, and an accumulated history penalty; after
//! each round, overused `(link, slot)` channels grow their history cost and
//! every edge is ripped up and re-routed (PathFinder's negotiated
//! congestion). The [`super::fold`] pass runs inside each round so folded
//! hops stop consuming channels between rounds.
//!
//! Determinism: requests are routed in node-id/input order, the search
//! iterates tiles in index order and neighbours in [`CgraSpec::neighbors`]
//! order with strict-improvement relaxation, and the per-(link, slot)
//! occupancy and history live in dense tables whose only reductions (the
//! overuse sum, the history update) are order-free — the result is a pure
//! function of `(dfg, spec, mask, ii, placements)`.
//!
//! The router never invents illegality: for any mapping that is legal under
//! the mask's shortest-path hop counts, every edge admits at least its
//! canonical path, so [`route_mapping`] returns `Some` with the residual
//! overuse recorded — callers on the annealed search path gate acceptance on
//! [`RouteSet::congestion_free`], while report-only callers take whatever
//! congestion remains as a measurement.

use super::fold::Folder;
use super::{Placement, ResourceMask};
use crate::arch::CgraSpec;
use picachu_ir::dfg::{Dfg, NodeId};

/// Channels per directed mesh link per II slot: how many distinct operands
/// one link can carry in the same `time mod II` cycle.
pub const CHANNEL_CAP: u32 = 2;
/// Rip-up-and-retry rounds before accepting residual overuse.
const RIPUP_ROUNDS: usize = 8;
/// Cost added per unit of present overuse when a search considers an
/// already-saturated channel.
const PRESENT_PENALTY: u64 = 8;
/// History cost added per unit of overuse after each congested round.
const HISTORY_STEP: u32 = 2;
/// Extra hops beyond the masked shortest path a detour may take (also
/// bounded by the edge's timing slack).
const DETOUR_SLACK: u32 = 8;

/// Directed links per tile in a dense (link, slot) table: up, down, left,
/// right — the [`CgraSpec::neighbors`] order.
const DIRECTIONS: usize = 4;

/// Entries of a dense per-(directed link, slot) table on `spec` at `ii`.
pub(crate) fn link_slots(spec: &CgraSpec, ii: u32) -> usize {
    spec.len() * DIRECTIONS * ii as usize
}

/// Index of the directed link `from → to` (adjacent tiles) at `slot` in a
/// dense table of [`link_slots`] entries: `(from·4 + direction)·II + slot`.
pub(crate) fn link_slot(spec: &CgraSpec, ii: u32, from: usize, to: usize, slot: u32) -> usize {
    debug_assert_eq!(spec.hops(from, to), 1, "link {from}->{to} joins no neighbours");
    let direction = if to + spec.cols == from {
        0
    } else if to == from + spec.cols {
        1
    } else if to + 1 == from {
        2
    } else {
        3
    };
    (from * DIRECTIONS + direction) * ii as usize + slot as usize
}

/// One routed distance-0 operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedEdge {
    /// Producer node.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// Cycle the operand leaves the producer's tile (it arrives at
    /// `depart + hops`, exactly the consumer's issue time).
    pub depart: u32,
    /// Full tile sequence, producer tile first, consumer tile last.
    pub tiles: Vec<usize>,
    /// Per-hop register-folding flags (`tiles.len() − 1` entries); folded
    /// hops consume no link channel.
    pub folded: Vec<bool>,
}

impl RoutedEdge {
    /// Number of mesh hops this edge takes.
    pub fn hops(&self) -> u32 {
        (self.tiles.len() - 1) as u32
    }
}

/// The Route pass output for one mapping: every distance-0 edge's path plus
/// the channel accounting the Report pass summarizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSet {
    /// The II the routes are modulo-scheduled against.
    pub ii: u32,
    /// All routed edges, in deterministic (consumer, input) order.
    pub edges: Vec<RoutedEdge>,
    /// Total mesh hops across all edges.
    pub total_hops: u64,
    /// Hops the Fold pass moved into PE registers (no channel consumed).
    pub folded_hops: u64,
    /// Channel-slot units consumed (= `total_hops − folded_hops`).
    pub used_channel_slots: u64,
    /// Σ over (link, slot) of occupancy beyond [`CHANNEL_CAP`] — zero means
    /// the mapping fits the fabric's real channel capacities.
    pub overused_channel_slots: u64,
}

impl RouteSet {
    /// Whether every (link, slot) channel stays within [`CHANNEL_CAP`].
    pub fn congestion_free(&self) -> bool {
        self.overused_channel_slots == 0
    }
}

struct Request {
    producer: usize,
    consumer: usize,
    src: usize,
    dst: usize,
    /// Earliest departure: producer issue time + latency.
    rdy: u32,
    /// Exact arrival: consumer issue time.
    arrive: u32,
    /// Masked shortest-path hop count.
    hops: u32,
}

/// Routes every distance-0 edge of a placed DFG. Returns `None` only when
/// the placement is not legal under the mask (an edge's endpoints are
/// unreachable or its timing slack is below the shortest path) — never for
/// a mapping the Place pass accepted.
pub fn route_mapping(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    ii: u32,
    placements: &[Placement],
) -> Option<RouteSet> {
    let mut place_of: Vec<Option<Placement>> = vec![None; dfg.len()];
    for p in placements {
        place_of[p.node.0] = Some(*p);
    }
    let mut fanout = vec![0u32; dfg.len()];
    for node in dfg.nodes() {
        for e in &node.inputs {
            if e.distance == 0 {
                fanout[e.from.0] += 1;
            }
        }
    }
    let mut reqs: Vec<Request> = Vec::new();
    for node in dfg.nodes() {
        for e in node.inputs.iter().filter(|e| e.distance == 0) {
            let pu = place_of[e.from.0]?;
            let pv = place_of[node.id.0]?;
            let lat = dfg.nodes()[e.from.0].op.latency();
            let h = mask.hops(pu.tile, pv.tile)?;
            let rdy = pu.time + lat;
            if pv.time < rdy + h {
                return None; // not legal under the mask
            }
            reqs.push(Request {
                producer: e.from.0,
                consumer: node.id.0,
                src: pu.tile,
                dst: pv.tile,
                rdy,
                arrive: pv.time,
                hops: h,
            });
        }
    }

    let mut folder = Folder::new(spec, ii, placements);
    // per-(link, slot) occupancy of the current round, and the history
    // penalties accumulated across rounds
    let mut occ = vec![0u32; link_slots(spec, ii)];
    let mut history = vec![0u32; occ.len()];
    let mut scratch = PathScratch::new(spec, mask, ii);
    for round in 0..RIPUP_ROUNDS {
        folder.reset_ports();
        occ.fill(0);
        let mut edges: Vec<RoutedEdge> = Vec::with_capacity(reqs.len());
        for r in &reqs {
            let tiles = if r.src == r.dst {
                vec![r.src]
            } else {
                best_path(spec, ii, r, &occ, &history, &mut scratch)?
            };
            let depart = r.arrive - (tiles.len() as u32 - 1);
            let folded = folder.fold_path(fanout[r.producer], depart, &tiles);
            for (j, w) in tiles.windows(2).enumerate() {
                if !folded[j] {
                    occ[link_slot(spec, ii, w[0], w[1], (depart + j as u32) % ii)] += 1;
                }
            }
            edges.push(RoutedEdge {
                from: NodeId(r.producer),
                to: NodeId(r.consumer),
                depart,
                tiles,
                folded,
            });
        }
        let overused: u64 = occ.iter().map(|&c| u64::from(c.saturating_sub(CHANNEL_CAP))).sum();
        if overused == 0 || round == RIPUP_ROUNDS - 1 {
            let total_hops: u64 = edges.iter().map(|e| u64::from(e.hops())).sum();
            let folded_hops: u64 = edges
                .iter()
                .map(|e| e.folded.iter().filter(|&&f| f).count() as u64)
                .sum();
            return Some(RouteSet {
                ii,
                edges,
                total_hops,
                folded_hops,
                used_channel_slots: total_hops - folded_hops,
                overused_channel_slots: overused,
            });
        }
        // negotiate: overused channels get permanently more expensive, then
        // everything rips up and re-routes
        for (h, &c) in history.iter_mut().zip(&occ) {
            if c > CHANNEL_CAP {
                *h += HISTORY_STEP * (c - CHANNEL_CAP);
            }
        }
    }
    None // unreachable: the last round always returns
}

/// The DP tables of [`best_path`], flat (`step·tiles + tile`) and reused
/// across every edge and round of one [`route_mapping`] call, plus the
/// alive links into every tile, which that call's mask and II fix.
struct PathScratch {
    dp: Vec<u64>,
    par: Vec<usize>,
    /// `inbound[inbound_start[b]..inbound_start[b + 1]]` lists the alive
    /// links `a → b` as `(a, base)`, in [`CgraSpec::neighbors`] order of
    /// `b`; the link's entry at `slot` is `base + slot`
    /// ([`link_slot`]).
    inbound: Vec<(usize, usize)>,
    inbound_start: Vec<usize>,
}

impl PathScratch {
    fn new(spec: &CgraSpec, mask: &ResourceMask, ii: u32) -> PathScratch {
        let mut inbound = Vec::with_capacity(spec.len() * DIRECTIONS);
        let mut inbound_start = Vec::with_capacity(spec.len() + 1);
        for b in 0..spec.len() {
            inbound_start.push(inbound.len());
            inbound.extend(
                spec.neighbors(b)
                    .filter(|&a| mask.link_alive(a, b))
                    .map(|a| (a, link_slot(spec, ii, a, b, 0))),
            );
        }
        inbound_start.push(inbound.len());
        PathScratch { dp: Vec::new(), par: Vec::new(), inbound, inbound_start }
    }
}

/// Deterministic min-cost path for one edge over the time-expanded alive
/// mesh. DP over backward steps from the consumer: `dp[k][tile]` is the
/// cheapest way to be at `tile`, `k` hops before arrival (i.e. at time
/// `arrive − k`). Costs are `1 + present-overuse penalty + history` per
/// link-slot. Returns the full tile sequence producer→consumer, preferring
/// lower cost, then fewer hops (a shorter path departs later, keeping slack
/// at the producer's register).
fn best_path(
    spec: &CgraSpec,
    ii: u32,
    r: &Request,
    occ: &[u32],
    history: &[u32],
    scratch: &mut PathScratch,
) -> Option<Vec<usize>> {
    const INF: u64 = u64::MAX;
    let budget = r.arrive - r.rdy; // ≥ r.hops, checked by the caller
    let max_len = budget.min(r.hops + DETOUR_SLACK) as usize;
    let n = spec.len();
    let PathScratch { dp, par, inbound, inbound_start } = scratch;
    dp.clear();
    dp.resize((max_len + 1) * n, INF);
    par.clear();
    par.resize((max_len + 1) * n, usize::MAX);
    dp[r.dst] = 0;
    let mut best: Option<(u64, usize)> = None;
    for k in 0..=max_len {
        let at_src = dp[k * n + r.src];
        if at_src != INF && best.is_none_or(|(bc, _)| at_src < bc) {
            best = Some((at_src, k));
        }
        if k == max_len {
            break;
        }
        // time at the predecessor tile: the hop a→b lands at arrive − k, so
        // the value sits at `a` at arrive − k − 1, which must be ≥ rdy
        let Some(t_a) = r.arrive.checked_sub(k as u32 + 1) else { break };
        if t_a < r.rdy {
            break;
        }
        let slot = (t_a % ii) as usize;
        let (done, next) = dp.split_at_mut((k + 1) * n);
        let next_par = &mut par[(k + 1) * n..(k + 2) * n];
        for (b, &c) in done[k * n..].iter().enumerate() {
            if c == INF {
                continue;
            }
            for &(a, base) in &inbound[inbound_start[b]..inbound_start[b + 1]] {
                let link = base + slot;
                let o = occ[link];
                let present = if o >= CHANNEL_CAP {
                    PRESENT_PENALTY * u64::from(o - CHANNEL_CAP + 1)
                } else {
                    0
                };
                let nc = c + 1 + present + u64::from(history[link]);
                if nc < next[a] {
                    next[a] = nc;
                    next_par[a] = b;
                }
            }
        }
    }
    let (_, k) = best?;
    let mut tiles = Vec::with_capacity(k + 1);
    tiles.push(r.src);
    let (mut cur, mut step) = (r.src, k);
    while step > 0 {
        cur = par[step * n + cur];
        step -= 1;
        tiles.push(cur);
    }
    Some(tiles)
}
