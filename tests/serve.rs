//! Property/invariant suite for the serving scheduler: seeded random
//! arrival traces × pool configurations × chaos schedules must uphold the
//! five invariants — conservation (every admitted request reaches exactly
//! one typed terminal state), work conservation (no startable shard idles
//! while compatible work waits), batching legality (no batch mixes
//! tenants/phases/shape buckets), bit-exact replay from the seed, and
//! conservation under failure (tokens committed by surviving batch steps
//! equal tokens reported by terminal states) — with shrinking, replayable
//! counterexample seeds on failure (the `tests/faults.rs` / oracle replay
//! pattern). Directed tests cover the degraded-capacity story (mid-trace
//! `FaultPlan`, rebalancing, pool-wide outage), the chaos story (crash
//! mid-prefill, crash over an empty queue, recover-then-re-crash), and the
//! degenerate corners (pool of 1, all shards faulted, zero requests).

use picachu::faults::FaultPlan;
use picachu_llm::ModelConfig;
use picachu_serve::{
    run, summarize, ArrivalPattern, ChaosAction, ChaosEvent, Outcome, RejectReason, RetryPolicy,
    ServeConfig, ShardSpec, Tenant,
};
use picachu_testkit::prop::{check_result, replay, Gen, PropError, PropResult};
use picachu_testkit::{prop_assert, prop_assert_eq, prop_check};
use std::collections::BTreeMap;

fn tiny_model(name: &'static str, layers: usize, d_model: usize) -> ModelConfig {
    ModelConfig {
        name,
        layers,
        d_model,
        n_heads: 4,
        d_ff: 2 * d_model,
        ..ModelConfig::gpt2()
    }
}

/// A fault plan that no PICACHU mapping survives (every tile dead) and
/// that zeroes every analytical shard's nominal units.
fn total_outage() -> FaultPlan {
    let mut plan = FaultPlan::none();
    for t in 0..16 {
        plan = plan.with_dead_tile(t);
    }
    plan
}

/// A chaos event degrading shard 0 with `plan` at `at_ns`.
fn degrade(at_ns: u64, plan: FaultPlan) -> ChaosEvent {
    ChaosEvent { at_ns, shard: 0, action: ChaosAction::Degrade(plan) }
}

/// Draws a random serving config: 1–2 tenants (random priorities) over
/// tiny models, one of the three arrival patterns, a 1–3 shard pool over
/// all six device kinds, random batching/admission knobs, sometimes a
/// mid-trace degradation, and sometimes more chaos events, preemption,
/// shedding and a random retry budget.
fn draw_config(g: &mut Gen) -> ServeConfig {
    let mut tenants = vec![Tenant {
        name: "alpha",
        model: tiny_model("tiny-alpha", 2, 64),
        weight: g.draw(1..4u32),
        prompt: g.draw(8..48usize),
        decode: (1, g.draw(1..6usize)),
        slo_ns: 1 << g.draw(20..34u32),
        priority: g.draw(0..2u32) as u8,
    }];
    if g.draw(0..2u32) == 1 {
        tenants.push(Tenant {
            name: "beta",
            model: tiny_model("tiny-beta", 1, 32),
            weight: g.draw(1..4u32),
            prompt: g.draw(8..48usize),
            decode: (1, g.draw(1..4usize)),
            slo_ns: 1 << g.draw(20..34u32),
            priority: g.draw(0..2u32) as u8,
        });
    }
    let mean_gap_ns = g.f64(1e4..5e6);
    let pattern = match g.draw(0..3u32) {
        0 => ArrivalPattern::Poisson { mean_gap_ns },
        1 => ArrivalPattern::Bursty { mean_gap_ns, mean_burst: g.draw(2..10usize) },
        _ => ArrivalPattern::Diurnal { mean_gap_ns, period_ns: g.f64(1e6..1e9) },
    };
    let n_shards = g.draw(1..4usize);
    let pool: Vec<ShardSpec> = (0..n_shards)
        .map(|_| match g.draw(0..6u32) {
            0 => ShardSpec::picachu(),
            1 => ShardSpec::Gemmini,
            2 => ShardSpec::Gpu,
            3 => ShardSpec::Cpu,
            4 => ShardSpec::Tandem,
            _ => ShardSpec::CgraBase,
        })
        .collect();
    // a small fixed fault-plan menu keeps the degraded compiles few
    let mut chaos = Vec::new();
    if g.draw(0..2u32) == 1 {
        let plan = match g.draw(0..3u32) {
            0 => FaultPlan::dead_tile(5),
            1 => FaultPlan::dead_link(5, 6),
            _ => total_outage(),
        };
        chaos.push(ChaosEvent {
            at_ns: g.draw(1..200u64) * 50_000,
            shard: g.draw(0..n_shards),
            action: ChaosAction::Degrade(plan),
        });
    }
    // chaos events are drawn raw (unsorted, unpaired) on purpose: the
    // scheduler must hold its invariants through any interleaving,
    // including a crash with no recover or a recover of a healthy shard
    if g.draw(0..2u32) == 1 {
        chaos.extend((0..g.draw(1..4usize)).map(|_| ChaosEvent {
            at_ns: g.draw(1..200u64) * 50_000,
            shard: g.draw(0..n_shards),
            action: match g.draw(0..4u32) {
                0 => ChaosAction::Crash,
                1 => ChaosAction::Recover,
                2 => ChaosAction::CompileOutage { for_ns: g.draw(1..100u64) * 10_000 },
                _ => ChaosAction::Degrade(FaultPlan::dead_tile(5)),
            },
        }));
    }
    ServeConfig {
        seed: g.draw(0..u32::MAX) as u64,
        tenants,
        pattern,
        n_requests: g.draw(5..40usize),
        pool,
        max_batch: g.draw(1..9usize),
        max_in_flight: g.draw(2..64usize),
        chaos,
        retry: RetryPolicy::new(g.draw(0..4u32), g.draw(1..10u64) * 100_000),
        preempt: g.draw(0..2u32) == 1,
        shed_deadline_factor: if g.draw(0..2u32) == 1 { Some(g.f64(1.0..8.0)) } else { None },
        log_batches: true,
    }
}

/// Re-checks the five invariants from the *outside* of the simulator —
/// records and batch log only, trusting no internal audit arithmetic
/// beyond the violation counters.
fn assert_invariants(cfg: &ServeConfig) -> PropResult {
    let report = run(cfg);

    // invariant 1 — conservation: every generated request has exactly one
    // record (ids 0..n each once) and exactly one typed terminal state
    prop_assert_eq!(report.records.len(), cfg.n_requests);
    for (i, r) in report.records.iter().enumerate() {
        prop_assert_eq!(r.id, i as u64);
        match &r.outcome {
            Outcome::Completed { tokens, finish_ns, ttft_ns, shards, retries } => {
                prop_assert!(*tokens >= 1);
                prop_assert!(*finish_ns >= r.arrival_ns + ttft_ns);
                prop_assert!(!shards.is_empty(), "completed with no serving shard");
                prop_assert!(
                    *retries <= cfg.retry.max_attempts,
                    "completed after more retries than the budget allows"
                );
            }
            Outcome::Rejected { at_ns, reason, .. } => {
                prop_assert!(*at_ns >= r.arrival_ns);
                prop_assert!(matches!(
                    reason,
                    RejectReason::QueueFull | RejectReason::NoCapacity | RejectReason::Shed
                ));
                if *reason == RejectReason::Shed {
                    prop_assert!(
                        cfg.shed_deadline_factor.is_some(),
                        "shed with shedding disabled"
                    );
                }
            }
            Outcome::Abandoned { at_ns, attempts } => {
                prop_assert!(*at_ns >= r.arrival_ns);
                prop_assert_eq!(*attempts, cfg.retry.max_attempts);
                prop_assert!(!cfg.chaos.is_empty(), "abandoned without any chaos");
            }
        }
    }
    let audit = report.audit;
    prop_assert_eq!(audit.generated, cfg.n_requests as u64);
    prop_assert!(audit.check().is_ok(), "audit: {:?}", audit.check());

    // invariant 2 — work conservation, counted per event by the simulator
    prop_assert_eq!(audit.work_conservation_violations, 0u64);

    // invariant 3 — batching legality, re-derived from the batch log:
    // members of one batch share tenant/phase/bucket by construction of
    // the key, so cross-check every member's tenant against its record,
    // batch sizes against the cap, and prefill batches against size 1
    let by_id: BTreeMap<u64, usize> =
        report.records.iter().map(|r| (r.id, r.tenant)).collect();
    for b in &report.batch_log {
        prop_assert!(!b.members.is_empty());
        prop_assert!(b.members.len() <= cfg.max_batch.max(1));
        if b.prefill {
            prop_assert_eq!(b.members.len(), 1usize);
        }
        for id in &b.members {
            prop_assert_eq!(by_id.get(id).copied(), Some(b.tenant));
        }
        prop_assert!(b.shard < cfg.pool.len());
    }
    prop_assert_eq!(audit.batch_legality_violations, 0u64);

    // every completed token was produced by some batch: total steps across
    // shards equals total batch-log members — except batches killed by a
    // chaos crash or preempted, which are logged at issue but never
    // complete a step (their members re-batch and are logged again)
    let steps: u64 = report.shards.iter().map(|s| s.steps).sum();
    let logged: u64 = report.batch_log.iter().map(|b| b.members.len() as u64).sum();
    if cfg.chaos.is_empty() && !cfg.preempt {
        prop_assert_eq!(steps, logged);
    } else {
        prop_assert!(steps <= logged, "more steps than issued batch members");
    }

    // invariant 5 — conservation under failure, cross-checked by the audit
    // arithmetic (tokens_committed == tokens_reported inside check()), plus
    // the kill/preempt counters agreeing between audit and shard reports
    let killed: u64 = report.shards.iter().map(|s| s.killed_batches).sum();
    let preempted: u64 = report.shards.iter().map(|s| s.preempted_batches).sum();
    prop_assert_eq!(killed, audit.killed_batches);
    prop_assert_eq!(preempted, audit.preemptions);

    // invariant 4 — bit-exact replay from the seed
    let again = run(cfg);
    prop_assert!(report == again, "replay diverged");

    // the summary is well-formed whatever happened
    let s = summarize(&report);
    prop_assert!(s.slo_attainment >= 0.0 && s.slo_attainment <= 1.0);
    prop_assert_eq!(s.completed + s.rejected + s.abandoned, cfg.n_requests as u64);
    prop_assert!(s.shed <= s.rejected);
    Ok(())
}

#[test]
fn prop_scheduler_invariants_hold_over_random_traces_and_pools() {
    prop_check!(12, 0x5E2F_0001, |g: &mut Gen| {
        let cfg = draw_config(g);
        assert_invariants(&cfg)
    });
}

#[test]
fn failing_properties_shrink_to_replayable_seeds() {
    // the replay contract of the harness itself, driven through a serving
    // property that must fail: every run completes at least one request
    // here, so demanding zero completions trips the assertion, and the
    // reported case seed must reproduce the identical failure
    let prop = |g: &mut Gen| -> PropResult {
        let cfg = ServeConfig {
            n_requests: g.draw(3..10usize),
            ..ServeConfig::new(
                vec![Tenant {
                    name: "t",
                    model: tiny_model("tiny-replay", 1, 32),
                    weight: 1,
                    prompt: 16,
                    decode: (1, 2),
                    slo_ns: u64::MAX,
                    priority: 0,
                }],
                ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
                vec![ShardSpec::Gemmini],
            )
        };
        let report = run(&cfg);
        prop_assert_eq!(report.audit.completed, 0u64); // deliberately false
        Ok(())
    };
    let failure = check_result(8, 0xBAD_5EED, prop).expect_err("property must fail");
    match replay(failure.case_seed, prop) {
        Err(PropError::Fail(msg)) => assert_eq!(msg, failure.message),
        other => panic!("case seed did not replay the failure: {other:?}"),
    }
}

#[test]
fn degraded_shard_rebalances_and_healthy_shards_stay_bit_identical() {
    let tenants = vec![Tenant {
        name: "t",
        model: tiny_model("tiny-degrade", 2, 64),
        weight: 1,
        prompt: 32,
        decode: (2, 4),
        slo_ns: u64::MAX,
        priority: 0,
    }];
    let base = ServeConfig {
        seed: 0xD1E5,
        n_requests: 40,
        max_batch: 4,
        log_batches: true,
        ..ServeConfig::new(
            tenants,
            ArrivalPattern::Poisson { mean_gap_ns: 100_000.0 },
            vec![ShardSpec::picachu(), ShardSpec::Gemmini],
        )
    };
    let clean = run(&base);
    clean.audit.check().unwrap();
    assert_eq!(clean.audit.completed, 40, "all complete fault-free");

    // kill shard 0 mid-trace
    let fault_at = clean.horizon_ns / 3;
    let faulted = run(&ServeConfig {
        chaos: vec![degrade(fault_at, total_outage())],
        ..base.clone()
    });
    faulted.audit.check().unwrap();

    // the scheduler rebalanced: nothing piles up on the dead shard — no
    // batch is issued on it after the fault lands, and every request
    // still reaches a terminal state (shard 1 absorbs the work)
    for b in &faulted.batch_log {
        assert!(
            b.shard != 0 || b.start_ns < fault_at,
            "batch issued on the dead shard at {} (fault at {fault_at})",
            b.start_ns
        );
    }
    assert_eq!(
        faulted.audit.completed + faulted.audit.rejected_after_admission
            + faulted.audit.rejected_at_admission,
        40
    );
    assert_eq!(faulted.audit.completed, 40, "healthy shard absorbs the whole trace");
    assert!(!faulted.shards[0].in_service);

    // fault isolation: the healthy shard's measured report is bit-identical
    // to its fault-free run — same cost table, same backend
    assert_eq!(faulted.shards[1].cost_table, clean.shards[1].cost_table);
    assert_eq!(faulted.shards[1].backend, clean.shards[1].backend);
    // and it did at least as many steps as before (it inherited work)
    assert!(faulted.shards[1].steps >= clean.shards[1].steps);

    // a *degraded* (not dead) shard stays in service at its re-measured
    // prices
    let degraded = run(&ServeConfig {
        chaos: vec![degrade(fault_at, FaultPlan::dead_tile(5))],
        ..base
    });
    degraded.audit.check().unwrap();
    assert!(degraded.shards[0].in_service);
    assert_eq!(degraded.audit.completed, 40);
}

#[test]
fn pool_wide_outage_rejects_typed() {
    let tenants = vec![Tenant {
        name: "t",
        model: tiny_model("tiny-outage", 1, 32),
        weight: 1,
        prompt: 16,
        decode: (2, 2),
        slo_ns: u64::MAX,
        priority: 0,
    }];
    let base = ServeConfig {
        seed: 7,
        n_requests: 30,
        log_batches: true,
        ..ServeConfig::new(
            tenants,
            ArrivalPattern::Bursty { mean_gap_ns: 1e5, mean_burst: 4 },
            vec![ShardSpec::Gemmini],
        )
    };
    // land the outage while a request waits in the queue: one ns after
    // the first arrival a clean run had to queue
    let clean = run(&base);
    let waited = clean
        .batch_log
        .iter()
        .find(|b| b.prefill && b.start_ns > clean.records[b.members[0] as usize].arrival_ns)
        .expect("a clean run queues some request")
        .members[0] as usize;
    let fault_at = clean.records[waited].arrival_ns + 1;
    let cfg = ServeConfig { chaos: vec![degrade(fault_at, total_outage())], ..base };
    let report = run(&cfg);
    report.audit.check().unwrap();
    // pool of 1, faulted for good: nothing hangs, nothing panics, every
    // request ends in a typed outcome
    assert_eq!(report.records.len(), 30);
    for r in &report.records {
        if r.arrival_ns >= fault_at {
            // post-fault arrivals never get in
            assert_eq!(
                r.outcome,
                Outcome::Rejected {
                    at_ns: r.arrival_ns,
                    reason: RejectReason::NoCapacity,
                    after_admission: false
                },
                "request {}",
                r.id
            );
        }
    }
    // the queued request was displaced into the retry ladder, found no
    // shard on any attempt and was abandoned with its budget spent
    assert_eq!(
        report.records[waited].outcome,
        Outcome::Abandoned {
            at_ns: fault_at + cfg.retry.total_backoff(cfg.retry.max_attempts),
            attempts: cfg.retry.max_attempts
        }
    );
    assert_eq!(report.audit.retries, u64::from(cfg.retry.max_attempts) * report.audit.abandoned);
    let s = summarize(&report);
    assert_eq!(s.completed + s.rejected + s.abandoned, 30);
}

#[test]
fn degenerate_configs_are_clean() {
    let tenant = Tenant {
        name: "t",
        model: tiny_model("tiny-degenerate", 1, 32),
        weight: 1,
        prompt: 16,
        decode: (1, 3),
        slo_ns: u64::MAX,
        priority: 0,
    };
    // zero-request trace
    let empty = run(&ServeConfig {
        n_requests: 0,
        ..ServeConfig::new(
            vec![tenant.clone()],
            ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
            vec![ShardSpec::Gpu],
        )
    });
    empty.audit.check().unwrap();
    assert!(empty.records.is_empty());
    assert_eq!(summarize(&empty).throughput_tokens_per_s, 0.0);

    // pool of 1, batch of 1, admission cap of 1: strictly serial serving
    let serial = run(&ServeConfig {
        n_requests: 12,
        max_batch: 1,
        max_in_flight: 1,
        log_batches: true,
        ..ServeConfig::new(
            vec![tenant],
            ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
            vec![ShardSpec::Tandem],
        )
    });
    serial.audit.check().unwrap();
    for b in &serial.batch_log {
        assert_eq!(b.members.len(), 1);
    }
    // admission cap 1 can reject under bursts, but whatever was admitted
    // completed
    assert_eq!(
        serial.audit.admitted,
        serial.audit.completed,
        "pool never died, so no admitted request may be lost"
    );
}

/// Shared base for the directed chaos tests: two shards, one tenant,
/// modest steady load, batch logging on.
fn chaos_base(name: &'static str, n_requests: usize) -> ServeConfig {
    ServeConfig {
        seed: 0xC4A0,
        n_requests,
        max_batch: 4,
        log_batches: true,
        ..ServeConfig::new(
            vec![Tenant {
                name: "t",
                model: tiny_model(name, 2, 64),
                weight: 1,
                prompt: 32,
                decode: (2, 6),
                slo_ns: u64::MAX,
                priority: 0,
            }],
            ArrivalPattern::Poisson { mean_gap_ns: 100_000.0 },
            vec![ShardSpec::Gemmini, ShardSpec::Gpu],
        )
    }
}

#[test]
fn crash_during_prefill_retries_on_survivors() {
    // dry-run clean to find a prefill batch's execution window, then aim a
    // crash into the middle of it
    let base = chaos_base("tiny-crash-prefill", 40);
    let clean = run(&base);
    clean.audit.check().unwrap();
    let b = clean
        .batch_log
        .iter()
        .find(|b| b.prefill && b.cost_ns > 1)
        .expect("trace must contain a prefill batch");
    let (shard, at_ns) = (b.shard, b.start_ns + b.cost_ns / 2);
    let chaotic = run(&ServeConfig {
        chaos: vec![
            ChaosEvent { at_ns, shard, action: ChaosAction::Crash },
            ChaosEvent { at_ns: at_ns * 16, shard, action: ChaosAction::Recover },
        ],
        ..base
    });
    chaotic.audit.check().unwrap();
    assert!(chaotic.audit.killed_batches >= 1, "the crash must land mid-batch");
    assert!(
        chaotic.audit.retries >= 1,
        "killed prefill members must enter the retry path"
    );
    // one shard stayed healthy throughout, so every admitted request still
    // terminates — and the killed prefill's tokens were never committed
    assert_eq!(
        chaotic.audit.completed + chaotic.audit.abandoned,
        chaotic.audit.admitted
    );
    let retried = chaotic
        .records
        .iter()
        .filter(|r| matches!(&r.outcome, Outcome::Completed { retries, .. } if *retries > 0))
        .count();
    assert!(
        retried >= 1 || chaotic.audit.abandoned >= 1,
        "someone must have survived (or exhausted) a retry"
    );
}

#[test]
fn crash_with_empty_queue_is_a_non_event_for_conservation() {
    // nearly no load: long gaps mean the crash lands while the pool idles
    let base = ServeConfig {
        n_requests: 4,
        ..chaos_base("tiny-crash-idle", 4)
    };
    let clean = run(&base);
    clean.audit.check().unwrap();
    // crash long after the last completion, recover later still
    let quiet = clean.horizon_ns * 4 + 1_000_000;
    let chaotic = run(&ServeConfig {
        chaos: vec![
            ChaosEvent { at_ns: quiet, shard: 0, action: ChaosAction::Crash },
            ChaosEvent { at_ns: quiet * 2, shard: 0, action: ChaosAction::Recover },
        ],
        ..base
    });
    chaotic.audit.check().unwrap();
    assert_eq!(chaotic.audit.killed_batches, 0, "nothing in flight to kill");
    assert_eq!(chaotic.audit.retries, 0);
    assert_eq!(chaotic.audit.completed, chaotic.audit.admitted);
    // the quiet crash cannot change what the requests experienced
    assert_eq!(chaotic.records, clean.records);
}

#[test]
fn recover_then_re_crash_keeps_invariants() {
    let base = chaos_base("tiny-recrash", 60);
    let clean = run(&base);
    clean.audit.check().unwrap();
    let h = clean.horizon_ns.max(8);
    // crash → recover → crash again → final recover, all on shard 0
    let cfg = ServeConfig {
        chaos: vec![
            ChaosEvent { at_ns: h / 8, shard: 0, action: ChaosAction::Crash },
            ChaosEvent { at_ns: h / 4, shard: 0, action: ChaosAction::Recover },
            ChaosEvent { at_ns: h / 2, shard: 0, action: ChaosAction::Crash },
            ChaosEvent { at_ns: h, shard: 0, action: ChaosAction::Recover },
        ],
        ..base
    };
    let a = run(&cfg);
    a.audit.check().unwrap();
    assert_eq!(a.audit.completed + a.audit.abandoned, a.audit.admitted);
    assert!(a.audit.completed > 0, "the surviving shard keeps serving");
    // the recovered shard really did come back: it, not just shard 1,
    // keeps batching between and after the outages unless the trace ended
    let shard0_after_recover =
        a.batch_log.iter().any(|b| b.shard == 0 && b.start_ns >= h / 4);
    assert!(
        shard0_after_recover || a.horizon_ns < h / 4,
        "recovery must return the shard to service"
    );
    let b = run(&cfg);
    assert_eq!(a, b, "double-crash chaos still replays bit-exactly");
}
