//! P&R scaling — the staged Place→Route→Fold pipeline vs the greedy
//! mapper across fabric sizes (DESIGN.md §13).
//!
//! For every kernel loop (UF1 and UF4) on 4×4 → 16×16 fabrics, maps with
//! the engine forced each way ([`PnrMode::Greedy`] / [`PnrMode::Annealed`])
//! and reports achieved II plus the Route-pass channel accounting. Two
//! invariants are gated downstream by `verify.sh`:
//!
//! * **paper-scale bit-identity** — at ≤ 64 tiles, the default engine (no
//!   [`PnrMode`] given) is the greedy engine bit-for-bit (`identity` rows);
//! * **payoff** — at 16×16, at least one kernel either maps at a lower II
//!   under the annealed engine or maps at all where greedy rejects
//!   (`summary` row).
//!
//! Emitted rows carry no wall-clock fields: the JSON is a pure function of
//! the seed, so the artifact is byte-identical across `PICACHU_THREADS`
//! settings (also gated by `verify.sh`).
//!
//! `--smoke` restricts to softmax on 4×4 and 16×16 — enough to exercise
//! both gates cheaply.

use picachu_bench::{banner, emit, json_obj, Json};
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::{map_dfg_with, pnr_report, PnrMode, ResourceMask};
use picachu_compiler::transform::{fuse_patterns, unroll};
use picachu_ir::dfg::Dfg;
use picachu_ir::kernels::kernel_library;

const SEED: u64 = 7;

fn mode_name(mode: PnrMode) -> &'static str {
    match mode {
        PnrMode::Greedy => "greedy",
        PnrMode::Annealed => "annealed",
    }
}

struct Case {
    label: String,
    uf: usize,
    dfg: Dfg,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "PNR",
        "staged Place->Route->Fold vs greedy across fabric sizes",
    );
    let sizes: &[(usize, usize)] = if smoke {
        &[(4, 4), (16, 16)]
    } else {
        &[(4, 4), (8, 8), (12, 12), (16, 16)]
    };
    let mut cases: Vec<Case> = Vec::new();
    for k in kernel_library(4) {
        if smoke && k.name != "softmax" {
            continue;
        }
        for l in &k.loops {
            for uf in [1usize, 4] {
                let unrolled = if uf == 1 { l.dfg.clone() } else { unroll(&l.dfg, uf) };
                cases.push(Case {
                    label: l.label.clone(),
                    uf,
                    dfg: fuse_patterns(&unrolled),
                });
            }
        }
    }

    let mut lines = Vec::new();
    // payoff bookkeeping at the largest fabric
    let (pay_rows, pay_cols) = *sizes.last().expect("sizes nonempty");
    let mut payoff: Option<(String, &'static str, i64, i64)> = None;

    println!(
        "{:<18} {:>3} {:>7} {:>9} {:>9} {:>6} {:>6} {:>6}",
        "loop", "uf", "fabric", "greedy II", "anneal II", "area", "chan", "folded"
    );
    for &(rows, cols) in sizes {
        let spec = CgraSpec::picachu(rows, cols);
        let mask = ResourceMask::full(&spec);
        for c in &cases {
            let mut iis: Vec<i64> = Vec::new();
            for mode in [PnrMode::Greedy, PnrMode::Annealed] {
                let mapped = map_dfg_with(&c.dfg, &spec, SEED, &mask, Some(mode));
                let (ok, ii, report) = match &mapped {
                    Ok(m) => (true, m.ii as i64, pnr_report(&c.dfg, &spec, &mask, m)),
                    Err(_) => (false, -1, None),
                };
                iis.push(ii);
                let (area, chan, folded, free) = report
                    .as_ref()
                    .map_or((0.0, 0.0, 0, true), |r| {
                        (r.area_used, r.channel_utilization, r.folded_hops as i64, r.congestion_free)
                    });
                lines.push(json_obj(&[
                    ("kind", Json::S("case".into())),
                    ("loop", Json::S(c.label.clone())),
                    ("uf", Json::I(c.uf as i64)),
                    ("rows", Json::I(rows as i64)),
                    ("cols", Json::I(cols as i64)),
                    ("tiles", Json::I(spec.len() as i64)),
                    ("mode", Json::S(mode_name(mode).into())),
                    ("ok", Json::B(ok)),
                    ("ii", Json::I(ii)),
                    ("area", Json::F(area)),
                    ("chan_util", Json::F(chan)),
                    ("folded_hops", Json::I(folded)),
                    ("congestion_free", Json::B(free)),
                ]));
            }
            let (g, a) = (iis[0], iis[1]);
            if rows == pay_rows && cols == pay_cols {
                let better = match (g, a) {
                    (-1, a) if a > 0 => Some("maps_where_greedy_fails"),
                    (g, a) if a > 0 && g > 0 && a < g => Some("lower_ii"),
                    _ => None,
                };
                if let Some(kind) = better {
                    let tag = format!("{}@uf{}", c.label, c.uf);
                    // keep the strongest demonstration: mapping an
                    // otherwise-unmappable kernel beats an II win
                    let stronger = payoff.as_ref().is_none_or(|(_, k, _, _)| {
                        *k == "lower_ii" && kind == "maps_where_greedy_fails"
                    });
                    if stronger {
                        payoff = Some((tag, kind, g, a));
                    }
                }
            }
            println!(
                "{:<18} {:>3} {:>4}x{:<3} {:>9} {:>9}",
                c.label, c.uf, rows, cols, g, a
            );
        }
        // paper-scale bit-identity: the default must be the greedy engine
        if spec.len() <= 64 {
            let identical = cases.iter().all(|c| {
                map_dfg_with(&c.dfg, &spec, SEED, &mask, None)
                    == map_dfg_with(&c.dfg, &spec, SEED, &mask, Some(PnrMode::Greedy))
            });
            lines.push(json_obj(&[
                ("kind", Json::S("identity".into())),
                ("rows", Json::I(rows as i64)),
                ("cols", Json::I(cols as i64)),
                ("bit_identical", Json::B(identical)),
            ]));
            println!("  {rows}x{cols}: auto==greedy bit-identical: {identical}");
        }
    }

    let (tag, kind, g, a) = payoff
        .map(|(t, k, g, a)| (t, k.to_string(), g, a))
        .unwrap_or_else(|| ("".into(), "none".into(), -1, -1));
    println!("\npayoff at {pay_rows}x{pay_cols}: {kind} ({tag}: greedy II {g}, annealed II {a})");
    lines.push(json_obj(&[
        ("kind", Json::S("summary".into())),
        ("rows", Json::I(pay_rows as i64)),
        ("cols", Json::I(pay_cols as i64)),
        ("payoff_kernel", Json::S(tag)),
        ("payoff_kind", Json::S(kind)),
        ("greedy_ii", Json::I(g)),
        ("annealed_ii", Json::I(a)),
    ]));
    emit("BENCH_pnr", &lines);
}
