//! Degenerate-shape and degenerate-geometry coverage: 0-element ops,
//! single-iteration loops, buffers smaller than one channel row, and 1×1
//! fabric/systolic grids must produce sane zero-or-positive costs — never
//! a panic, an underflow wraparound, or a NaN.

use picachu::engine::{EngineConfig, PicachuEngine};
use picachu::faults::FaultPlan;
use picachu_llm::trace::TraceOp;
use picachu_cgra::{CgraConfig, CgraSimulator};
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::{map_dfg, map_dfg_with, PnrMode, ResourceMask};
use picachu_compiler::transform::{fuse_patterns, unroll};
use picachu_ir::kernels::{kernel_library, relu_kernel};
use picachu_nonlinear::NonlinearOp;
use picachu_systolic::{DmaModel, SharedBuffer, SystolicArray};

fn finite_and_nonnegative(b: &picachu::Breakdown) {
    for (name, v) in [
        ("gemm", b.gemm),
        ("nonlinear", b.nonlinear),
        ("dm", b.data_movement),
        ("overhead", b.overhead),
    ] {
        assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
    }
}

#[test]
fn zero_element_ops_cost_nothing() {
    let mut e = PicachuEngine::new(EngineConfig::default());
    for op in NonlinearOp::ALL {
        assert_eq!(e.nonlinear_compute_cycles(op, 0, 64), 0, "{op:?} rows=0");
        assert_eq!(e.nonlinear_compute_cycles(op, 64, 0), 0, "{op:?} channel=0");
        assert_eq!(e.nonlinear_compute_cycles(op, 0, 0), 0, "{op:?} empty");
    }
}

#[test]
fn zero_shape_traces_execute_cleanly() {
    let mut e = PicachuEngine::new(EngineConfig::default());
    for op in NonlinearOp::ALL {
        for (rows, channel) in [(0usize, 64usize), (64, 0), (0, 0)] {
            let trace = [
                TraceOp::Gemm { m: rows, k: 16, n: channel, count: 1 },
                TraceOp::Nonlinear { op, rows, channel },
            ];
            let b = e.execute_trace(&trace);
            finite_and_nonnegative(&b);
            assert_eq!(b.nonlinear, 0.0, "{op:?} {rows}x{channel} costs compute");
        }
    }
}

#[test]
fn single_element_runs_one_iteration() {
    // elements < elements_per_ii collapses to one iteration: exactly the
    // prologue, on both the analytical and the simulated path.
    let mut e = PicachuEngine::new(EngineConfig::default());
    for op in NonlinearOp::ALL {
        let loops = e.compile_op(op).to_vec();
        for (i, l) in loops.iter().enumerate() {
            assert_eq!(l.cycles(1), l.mapping.schedule_len as u64, "{}", l.label);
            let dfg = e.lowered_dfg(op, i, l.uf, l.vf);
            let cfg = CgraConfig::from_mapping(&dfg, &l.mapping, e.spec());
            let r = CgraSimulator::new(e.spec(), &dfg, &cfg).run(1);
            assert_eq!(r.cycles, l.cycles(1), "{}", l.label);
        }
        let b = e.execute_trace(&[TraceOp::Nonlinear { op, rows: 1, channel: 1 }]);
        finite_and_nonnegative(&b);
        assert!(b.nonlinear > 0.0, "{op:?} 1x1 must cost at least the prologue");
    }
}

#[test]
fn buffer_smaller_than_one_channel_row() {
    // 1 KB buffer => 256-byte working set; a 4096-element FP16 channel is
    // 8 KB => hard Case 2 with many chunks per row. Must stay finite and
    // strictly more expensive than the roomy default.
    let total = |kb: usize| {
        let mut e =
            PicachuEngine::new(EngineConfig { buffer_kb: kb, ..EngineConfig::default() });
        let b = e.execute_trace(&[TraceOp::Nonlinear {
            op: NonlinearOp::LayerNorm,
            rows: 8,
            channel: 4096,
        }]);
        finite_and_nonnegative(&b);
        b.total()
    };
    assert!(total(1) > total(40), "starved buffer must pay for DMA round trips");

    let tiny = SharedBuffer::new_kb(1);
    assert!(!tiny.channel_fits(4096, 2));
    // chunks = 0 must short-circuit, not divide by zero
    assert_eq!(tiny.pipelined_cycles(0, 256, 10, &DmaModel::default()), 0);
}

#[test]
fn one_by_one_fabric_compiles_and_simulates() {
    let mut e = PicachuEngine::new(EngineConfig {
        cgra_rows: 1,
        cgra_cols: 1,
        unroll_candidates: vec![1],
        ..EngineConfig::default()
    });
    assert_eq!(e.spec().len(), 1);
    for op in [NonlinearOp::Relu, NonlinearOp::Softmax, NonlinearOp::Gelu] {
        let loops = e.compile_op(op).to_vec();
        for (i, l) in loops.iter().enumerate() {
            // every node shares the single tile: II >= node count, 0 hops
            let dfg = e.lowered_dfg(op, i, l.uf, l.vf);
            assert!(l.mapping.ii as usize >= dfg.len(), "{}", l.label);
            let cfg = CgraConfig::from_mapping(&dfg, &l.mapping, e.spec());
            let r = CgraSimulator::new(e.spec(), &dfg, &cfg).run(16);
            assert_eq!(r.cycles, l.mapping.cycles_for(16), "{}", l.label);
            assert_eq!(r.noc_hops, 0, "{} routed off a 1x1 grid", l.label);
        }
    }
}

#[test]
fn one_by_one_fabric_maps_relu_directly() {
    let spec = CgraSpec::picachu(1, 1);
    let d = fuse_patterns(&relu_kernel().loops[0].dfg);
    let m = map_dfg(&d, &spec, 17).expect("relu maps on a single universal tile");
    assert!(m.ii as usize >= d.len());
}

#[test]
fn all_but_one_tile_dead_degrades_like_a_one_by_one_fabric() {
    // A 4×4 universal fabric with 15 dead PEs is functionally a 1×1 grid:
    // relu must still map (II >= node count, zero hops — every node shares
    // the survivor) and simulate under the matching fault plan.
    let spec = CgraSpec::universal(4, 4);
    let mut plan = FaultPlan::none();
    for t in 0..15 {
        plan = plan.with_dead_tile(t);
    }
    let mask = ResourceMask::degraded(&spec, plan.dead_tiles.iter().copied(), []);
    assert_eq!(mask.alive_count(), 1);
    let d = fuse_patterns(&relu_kernel().loops[0].dfg);
    let m = map_dfg_with(&d, &spec, 17, &mask, None)
        .expect("relu maps on the lone surviving universal tile");
    assert!(m.ii as usize >= d.len());
    for p in &m.placements {
        assert_eq!(p.tile, 15, "only tile 15 is alive");
    }
    let cfg = CgraConfig::from_mapping(&d, &m, &spec);
    let run = CgraSimulator::new(&spec, &d, &cfg)
        .run_faulted(16, &plan)
        .expect("degraded mapping simulates under its own plan");
    assert_eq!(run.report.cycles, m.cycles_for(16));
    assert_eq!(run.report.noc_hops, 0, "a single survivor routes nowhere");
}

#[test]
fn single_surviving_serpentine_route_still_maps() {
    // Kill every mesh link except a serpentine path
    // 0-1-2-3 | 3-7 | 7-6-5-4 | 4-8 | 8-9-10-11 | 11-15 | 15-14-13-12:
    // the alive topology is one Hamiltonian path, so any two tiles remain
    // connected but many hop distances inflate well past Manhattan.
    let spec = CgraSpec::universal(4, 4);
    let keep: &[(usize, usize)] = &[
        (0, 1), (1, 2), (2, 3), (3, 7), (6, 7), (5, 6), (4, 5), (4, 8),
        (8, 9), (9, 10), (10, 11), (11, 15), (14, 15), (13, 14), (12, 13),
    ];
    let mut plan = FaultPlan::none();
    for r in 0..4usize {
        for c in 0..4usize {
            let t = r * 4 + c;
            for n in [(c + 1 < 4).then_some(t + 1), (r + 1 < 4).then_some(t + 4)]
                .into_iter()
                .flatten()
            {
                let link = (t.min(n), t.max(n));
                if !keep.contains(&link) {
                    plan = plan.with_dead_link(link.0, link.1);
                }
            }
        }
    }
    assert_eq!(plan.dead_links.len(), 24 - keep.len());
    let mask = ResourceMask::degraded(&spec, [], plan.dead_links.iter().copied());
    // endpoints of the serpentine are 15 hops apart on the surviving path
    assert_eq!(mask.hops(0, 12), Some(15));
    let d = fuse_patterns(&relu_kernel().loops[0].dfg);
    let m = map_dfg_with(&d, &spec, 17, &mask, None)
        .expect("relu maps along the single surviving route");
    let cfg = CgraConfig::from_mapping(&d, &m, &spec);
    let run = CgraSimulator::new(&spec, &d, &cfg)
        .run_faulted(16, &plan)
        .expect("serpentine mapping simulates under its own plan");
    assert_eq!(run.report.cycles, m.cycles_for(16));
}

#[test]
fn annealed_scale_up_fabrics_hold_exact_identities() {
    // 12×12 and 16×16 sit above the anneal threshold, so these mappings
    // come from the staged Place→Route→Fold pipeline — and must hold the
    // same exact cycle/II/NoC-hop identities the greedy paper-scale path
    // holds (the timing oracle sweeps this too; this is the directed
    // fast-failing version).
    for (rows, cols) in [(12usize, 12usize), (16, 16)] {
        let mut e = PicachuEngine::new(EngineConfig {
            cgra_rows: rows,
            cgra_cols: cols,
            unroll_candidates: vec![1, 2],
            ..EngineConfig::default()
        });
        for op in [NonlinearOp::Softmax, NonlinearOp::Gelu, NonlinearOp::Rope] {
            let loops = e.compile_op(op).to_vec();
            for (i, l) in loops.iter().enumerate() {
                let tag = format!("{}x{} {}", rows, cols, l.label);
                let dfg = e.lowered_dfg(op, i, l.uf, l.vf);
                let spec = e.spec();
                let cfg = CgraConfig::from_mapping(&dfg, &l.mapping, spec);
                let sim = CgraSimulator::new(spec, &dfg, &cfg);
                let (r1, r2, rn) = (sim.run(1), sim.run(2), sim.run(16));
                // prologue, derived II, and total-cycle identities
                assert_eq!(r1.cycles, l.mapping.schedule_len as u64, "{tag}");
                assert_eq!(r2.cycles - r1.cycles, l.mapping.ii as u64, "{tag}");
                assert_eq!(rn.cycles, l.mapping.cycles_for(16), "{tag}");
                // NoC hops: exactly the placement-derived per-iteration sum
                let hops: u64 = dfg
                    .nodes()
                    .iter()
                    .map(|n| {
                        let dst = l.mapping.placements[n.id.0].tile;
                        n.inputs
                            .iter()
                            .map(|e| spec.hops(l.mapping.placements[e.from.0].tile, dst) as u64)
                            .sum::<u64>()
                    })
                    .sum();
                assert_eq!(rn.noc_hops, hops * 16, "{tag}");
            }
        }
    }
}

#[test]
fn congestion_ripup_never_routes_over_a_dead_link() {
    // Kill a staggered set of links through the middle of a 16×16 fabric
    // (annealed path) and map every kernel loop at UF4 — real congestion
    // pressure, so the router's rip-up rounds genuinely fire. No routed
    // edge may cross a masked link, and every accepted mapping must still
    // be congestion-free.
    let spec = CgraSpec::picachu(16, 16);
    let mut plan = FaultPlan::none();
    for r in 0..16usize {
        // vertical links between rows 7 and 8, except every fourth column
        let t = r + 7 * 16;
        if r % 4 != 0 {
            plan = plan.with_dead_link(t, t + 16);
        }
        // horizontal links between cols 7 and 8 on odd rows
        let h = r * 16 + 7;
        if r % 2 == 1 {
            plan = plan.with_dead_link(h, h + 1);
        }
    }
    let mask = ResourceMask::degraded(&spec, [], plan.dead_links.iter().copied());
    let mut checked = 0usize;
    for k in kernel_library(4) {
        for l in &k.loops {
            let dfg = fuse_patterns(&unroll(&l.dfg, 4));
            let Ok(m) = map_dfg_with(&dfg, &spec, 17, &mask, Some(PnrMode::Annealed)) else {
                continue; // a loop that cannot meet II on the cut fabric is fine
            };
            let routes =
                picachu_compiler::mapper::route_mapping(&dfg, &spec, &mask, m.ii, &m.placements)
                    .unwrap_or_else(|| panic!("{}: accepted mapping must route", l.label));
            assert!(routes.congestion_free(), "{}: overused channel slots", l.label);
            for e in &routes.edges {
                for w in e.tiles.windows(2) {
                    assert!(
                        mask.link_alive(w[0], w[1]),
                        "{}: route {}→{} crosses dead link {:?}",
                        l.label,
                        e.from.0,
                        e.to.0,
                        (w[0], w[1])
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 5, "the cut fabric must still map most kernels: {checked}");
}

#[test]
fn one_by_one_systolic_array() {
    let s = SystolicArray::new(1, 1);
    assert_eq!(s.gemm_cycles(0, 8, 8), 0);
    assert_eq!(s.gemm_cycles(1, 1, 1), 1);
    // m*n tiles of k cycles each on a 1x1 grid
    assert_eq!(s.gemm_cycles(2, 3, 4), 2 * 4 * 3);

    let mut e = PicachuEngine::new(EngineConfig {
        systolic_rows: 1,
        systolic_cols: 1,
        ..EngineConfig::default()
    });
    let b = e.execute_trace(&[
        TraceOp::Gemm { m: 8, k: 8, n: 8, count: 1 },
        TraceOp::Nonlinear { op: NonlinearOp::Relu, rows: 8, channel: 8 },
    ]);
    finite_and_nonnegative(&b);
    assert!(b.gemm > 0.0);
}
