//! Engine-level fault scenarios: the degradation ladder, faulted trace
//! execution, DMA stall accounting and worker-panic isolation — exercised end-to-end through the public `picachu` API.
//!
//! The exhaustive per-fault oracle identities live in `picachu-oracle`
//! (`PICACHU_FAULT_SMOKE=1 cargo test -p picachu-oracle --test faults`);
//! this suite covers the integration seams those sweeps assume.

use picachu::engine::{EngineConfig, FallbackLevel, PicachuEngine};
use picachu::faults::{DmaFaultModel, FaultPlan};
use picachu::PicachuError;
use picachu_compiler::mapper::{repair_mapping, ResourceMask};
use picachu_llm::trace::TraceOp;
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;
use picachu_runtime::{try_parallel_find_first, try_parallel_map};
use picachu_systolic::DmaModel;
use std::collections::HashMap;

#[test]
fn every_paper_kernel_survives_a_dead_pe_and_a_dead_link() {
    // One central dead PE and one central dead link, every paper kernel:
    // the degradation ladder must re-map on the engine's own fabric, by
    // repair or in full (never reject, never fall back to the universal
    // fabric), and the faulted trace must execute with finite,
    // positive-where-expected costs.
    for plan in [FaultPlan::dead_tile(5), FaultPlan::dead_link(5, 6)] {
        let mut e = PicachuEngine::new(EngineConfig::default());
        for op in NonlinearOp::ALL {
            let d = e
                .compile_op_degraded(op, &plan)
                .unwrap_or_else(|err| panic!("{op:?} under {plan}: {err}"));
            assert!(
                matches!(d.fallback, FallbackLevel::Remapped | FallbackLevel::Incremental),
                "{op:?} under {plan}: a single fault must re-map, got {}",
                d.fallback
            );
            assert!(d.ii_inflation.is_finite() && d.ii_inflation > 0.0, "{op:?} under {plan}");
            let b = e
                .try_execute_trace_faulted(
                    &[TraceOp::Nonlinear { op, rows: 32, channel: 64 }],
                    &plan,
                )
                .unwrap_or_else(|err| panic!("{op:?} trace under {plan}: {err}"));
            assert!(b.nonlinear.is_finite() && b.nonlinear > 0.0, "{op:?}");
        }
    }
}

#[test]
fn faulted_execution_is_deterministic() {
    let plan = FaultPlan::seeded(0xFA17_0001, 4, 4);
    let trace = [
        TraceOp::Gemm { m: 64, k: 64, n: 64, count: 1 },
        TraceOp::Nonlinear { op: NonlinearOp::Softmax, rows: 64, channel: 64 },
        TraceOp::Nonlinear { op: NonlinearOp::Gelu, rows: 64, channel: 256 },
    ];
    let run = || {
        let mut e = PicachuEngine::new(EngineConfig::default());
        e.try_execute_trace_faulted(&trace, &plan).expect("seeded plan executes")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.gemm.to_bits(), b.gemm.to_bits());
    assert_eq!(a.nonlinear.to_bits(), b.nonlinear.to_bits());
    assert_eq!(a.data_movement.to_bits(), b.data_movement.to_bits());
    assert_eq!(a.overhead.to_bits(), b.overhead.to_bits());
}

#[test]
fn dma_stall_density_monotonically_inflates_overhead() {
    // More stall probability can only add retry/backoff cycles to the
    // dedicated fault-service `overhead` phase (the healthy data-movement
    // term never moves); the deterministic per-(transfer, attempt) draw
    // makes this exactly monotone, not just statistically so.
    let trace = [TraceOp::Nonlinear { op: NonlinearOp::LayerNorm, rows: 64, channel: 4096 }];
    let run = |ppm: u32| {
        let plan = FaultPlan::none()
            .with_dma(DmaFaultModel { stall_ppm: ppm, stall_cycles: 400, seed: 0xD3AD });
        let mut e =
            PicachuEngine::new(EngineConfig { buffer_kb: 1, ..EngineConfig::default() });
        e.try_execute_trace_faulted(&trace, &plan).expect("stalls retry, not fail")
    };
    let clean = run(0);
    let mild = run(5_000);
    let harsh = run(50_000);
    assert!(
        clean.overhead <= mild.overhead && mild.overhead <= harsh.overhead,
        "{} / {} / {}",
        clean.overhead,
        mild.overhead,
        harsh.overhead
    );
    assert!(
        harsh.overhead > clean.overhead,
        "5 % stall density over many Case-2 chunks must cost something"
    );
    assert_eq!(
        clean.data_movement, harsh.data_movement,
        "stall service must never inflate the healthy data-movement term"
    );
}

#[test]
fn case2_fault_service_is_priced_exactly() {
    // GPT-2 prefill on a 4 KB Shared Buffer: every reduction is chunked
    // Case 2 (25 ops, 6,400 DMA transfers). The overhead phase of each plan
    // is pinned bit for bit, so the order and count of the priced
    // transfers (ECC re-fetches first, then each Case-2 op's fills and
    // drains in trace order) cannot drift.
    let trace = picachu_llm::model_trace(&ModelConfig::gpt2(), 64);
    let mut e = PicachuEngine::new(EngineConfig { buffer_kb: 4, ..EngineConfig::default() });
    let healthy = e.execute_trace(&trace);
    // two correctable words and one detected-uncorrectable re-fetch
    let sram = FaultPlan::none().with_sram_flip(3, 1).with_sram_flip(300, 1).with_sram_flip(41, 2);
    let stalls = DmaFaultModel { stall_ppm: 20_000, stall_cycles: 100, seed: 0x61 };
    let hopeless = DmaFaultModel { stall_ppm: 150_000, stall_cycles: 100, seed: 0x5EED };
    let cases = [
        ("sram", sram.clone(), 213.0f64),
        ("dma", FaultPlan::none().with_dma(stalls), 16_828.0),
        // the re-fetch is transfer 0 and stalls once; Case 2 starts at 1
        ("both", sram.clone().with_dma(stalls), 17_041.0),
    ];
    let rest = |b: picachu::Breakdown| [b.gemm, b.nonlinear, b.data_movement].map(f64::to_bits);
    for (name, plan, overhead) in cases {
        let b = e
            .try_execute_trace_faulted(&trace, &plan)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        assert_eq!(b.overhead.to_bits(), overhead.to_bits(), "{name}: overhead {}", b.overhead);
        assert_eq!(rest(b), rest(healthy), "{name}: faults touch only the overhead phase");
    }
    // a stall-only plan pays each transfer's retry ladder, and the ladder
    // does not depend on the transfer's size: 6,400 Case-2 transfers
    let dma = DmaModel::default();
    let ladder: u64 = (0..6_400u64)
        .map(|x| dma.transfer_cycles_faulted(0, x, &stalls).unwrap().overhead_cycles)
        .sum();
    let b = e.try_execute_trace_faulted(&trace, &FaultPlan::none().with_dma(stalls)).unwrap();
    assert_eq!(b.overhead, ladder as f64);
    match e.try_execute_trace_faulted(&trace, &sram.with_dma(hopeless)) {
        Err(PicachuError::Dma(d)) => assert_eq!(d.transfer, 2_838, "first exhausted transfer"),
        other => panic!("expected an exhausted transfer, got {other:?}"),
    }
}

#[test]
fn full_mask_repair_drift_is_a_ratchet() {
    // Repairing a healthy mapping on an intact fabric should return it
    // unchanged, but today it does not (DESIGN §13): the greedy placer
    // checks all operand routes of one consumer against the state before
    // committing any of them, so two routes of one consumer can both pass a
    // (tile, slot) holding one pass-through and leave it at three, above
    // ROUTE_CAP = 2. `pin_state` re-validates the same routes in node-id
    // order and meets the slot full. The counts below are the recorded
    // state; a fix belongs with the greedy placer and may only lower them.
    const ROUTE_CAP: u32 = 2;
    const DRIFTED_LOOPS: usize = 6;
    const OVER_CAP_PAIRS: usize = 54;
    let mut e = PicachuEngine::new(EngineConfig::default());
    let spec = e.spec().clone();
    let mask = ResourceMask::full(&spec);
    let (mut loops, mut drifted, mut over_cap) = (0, 0, 0);
    for op in NonlinearOp::ALL {
        for (i, l) in e.compile_op(op).to_vec().iter().enumerate() {
            loops += 1;
            let dfg = e.lowered_dfg(op, i, l.uf, l.vf);
            let repaired = repair_mapping(&dfg, &spec, e.loop_seed(i), &mask, &l.mapping);
            if repaired.as_ref() != Some(&l.mapping) {
                drifted += 1;
            }
            // routed pass-throughs per (tile, slot), and per consumer
            let ii = l.mapping.ii;
            let mut load: HashMap<(usize, u32), u32> = HashMap::new();
            let mut batched: HashMap<(usize, u32), u32> = HashMap::new();
            for node in dfg.nodes() {
                let pv = l.mapping.placements[node.id.0];
                let mut mine: HashMap<(usize, u32), u32> = HashMap::new();
                for edge in node.inputs.iter().filter(|edge| edge.distance == 0) {
                    let pu = l.mapping.placements[edge.from.0];
                    let h = mask.hops(pu.tile, pv.tile).expect("full mask connects");
                    let mut q = (pv.time - h + 1) % ii;
                    for tile in mask.path(pu.tile, pv.tile).expect("full mask connects") {
                        *mine.entry((tile, q)).or_default() += 1;
                        q = (q + 1) % ii;
                    }
                }
                for (slot, n) in mine {
                    *load.entry(slot).or_default() += n;
                    let most = batched.entry(slot).or_default();
                    *most = (*most).max(n);
                }
            }
            for (slot, n) in load {
                if n > ROUTE_CAP {
                    over_cap += 1;
                    assert!(
                        batched[&slot] >= 2,
                        "{op:?} loop {i}: {slot:?} holds {n} routes, none batched by one consumer"
                    );
                }
            }
        }
    }
    assert_eq!(loops, 13);
    assert_eq!(
        (drifted, over_cap),
        (DRIFTED_LOOPS, OVER_CAP_PAIRS),
        "lower the constants when a placer fix moves them down"
    );
}

#[test]
fn hopeless_dma_channel_is_a_typed_rejection() {
    // stall_ppm = 1e6 stalls every attempt of every transfer: the retry
    // ladder exhausts and the engine returns PicachuError::Dma, not a hang
    // or a panic.
    let plan = FaultPlan::none()
        .with_dma(DmaFaultModel { stall_ppm: 1_000_000, stall_cycles: 10, seed: 1 });
    let mut e = PicachuEngine::new(EngineConfig { buffer_kb: 1, ..EngineConfig::default() });
    let err = e
        .try_execute_trace_faulted(
            &[TraceOp::Nonlinear { op: NonlinearOp::LayerNorm, rows: 8, channel: 4096 }],
            &plan,
        )
        .expect_err("a channel that always stalls must exhaust its retries");
    assert!(matches!(err, PicachuError::Dma(_)), "got {err}");
}

#[test]
fn worker_panics_are_isolated_and_typed() {
    let err = try_parallel_map(&[1usize, 2, 3, 4], |_, &x| {
        if x == 3 {
            panic!("injected worker fault");
        }
        x * 10
    })
    .expect_err("the panicking worker must surface as WorkerPanic");
    assert!(err.to_string().contains("injected worker fault"), "{err}");

    // the non-panicking path keeps input order bit-identically
    let ok = try_parallel_map(&[3usize, 1, 2], |_, &x| x * 2).expect("no faults");
    assert_eq!(ok, vec![6, 2, 4]);

    let err = try_parallel_find_first(4, |i| {
        if i == 1 {
            panic!("scout {i} died");
        }
        None::<usize>
    })
    .expect_err("panicking scout must not be swallowed as 'not found'");
    assert!(err.to_string().contains("scout"), "{err}");
}
