//! Report pass: the post-P&R summary emitted alongside every [`Mapping`]
//! (cgra_pnr's analysis-tool output, and the achieved-II / channel-
//! utilization reporting the CGRA-toolchain evaluation literature treats as
//! first-class toolchain output).

use super::{route, Mapping, ResourceMask};
use crate::arch::CgraSpec;
use picachu_ir::dfg::Dfg;
use std::collections::BTreeSet;
use std::fmt;

/// Post-P&R quality summary for one mapping. Pure data derived from the
/// mapping — it never feeds back into [`Mapping`] equality, so caches and
/// goldens are unaffected by report evolution. The on-disk mapping store
/// does record it (the bitstream's `pnr` rows): an entry written before a
/// report change is rejected on load and compiled again.
#[derive(Debug, Clone, PartialEq)]
pub struct PnrReport {
    /// The initiation interval the pipeline achieved.
    pub achieved_ii: u32,
    /// Prologue depth (cycles until the first iteration completes).
    pub critical_path: u32,
    /// Fraction of alive tiles hosting at least one operation.
    pub area_used: f64,
    /// Channel-slot units consumed / total channel-slot capacity
    /// (alive directed links × II × [`route::CHANNEL_CAP`]).
    pub channel_utilization: f64,
    /// Total mesh hops routed.
    pub routed_hops: u64,
    /// Hops the Fold pass moved into PE registers.
    pub folded_hops: u64,
    /// Whether the routes fit every per-(link, slot) channel capacity.
    pub congestion_free: bool,
}

impl fmt::Display for PnrReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pnr: II={} len={} area={:.2} chan={:.3} hops={} folded={}{}",
            self.achieved_ii,
            self.critical_path,
            self.area_used,
            self.channel_utilization,
            self.routed_hops,
            self.folded_hops,
            if self.congestion_free { "" } else { " CONGESTED" }
        )
    }
}

/// Runs the Route+Fold passes over a finished mapping and summarizes them.
/// Returns `None` only if the mapping is not legal under `mask` (an edge
/// unreachable or too tight) — impossible for mappings produced by this
/// mapper with the same mask.
pub fn pnr_report(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    mapping: &Mapping,
) -> Option<PnrReport> {
    let routes = route::route_mapping(dfg, spec, mask, mapping.ii, &mapping.placements)?;
    Some(pnr_report_from_routes(spec, mask, mapping, &routes))
}

/// [`pnr_report`] for a mapping whose Route+Fold result `routes` the caller
/// already holds.
pub fn pnr_report_from_routes(
    spec: &CgraSpec,
    mask: &ResourceMask,
    mapping: &Mapping,
    routes: &route::RouteSet,
) -> PnrReport {
    let used_tiles: BTreeSet<usize> = mapping.placements.iter().map(|p| p.tile).collect();
    let alive = mask.alive_count().max(1);
    let mut live_links: u64 = 0;
    for a in 0..spec.len() {
        for b in spec.neighbors(a) {
            if mask.link_alive(a, b) {
                live_links += 1;
            }
        }
    }
    let denom =
        (live_links * u64::from(mapping.ii) * u64::from(route::CHANNEL_CAP)).max(1) as f64;
    PnrReport {
        achieved_ii: mapping.ii,
        critical_path: mapping.schedule_len,
        area_used: used_tiles.len() as f64 / alive as f64,
        channel_utilization: routes.used_channel_slots as f64 / denom,
        routed_hops: routes.total_hops,
        folded_hops: routes.folded_hops,
        congestion_free: routes.congestion_free(),
    }
}
