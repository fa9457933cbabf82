//! Million-event chaos soak: bursty two-priority traffic through a
//! heterogeneous pool under a randomized (but seeded) chaos schedule —
//! crashes, degradations, recoveries and compile outages — with retry,
//! preemption and load shedding all enabled. The harness machine-checks
//! every scheduler invariant (the extended `Audit`, including
//! conservation-under-failure) before publishing a single summary row to
//! `results/BENCH_soak.json`: availability, shed rate, retry
//! amplification and tail latency under chaos.
//!
//! `--smoke` runs the same pipeline on a short trace, additionally asserts
//! bit-exact replay, and emits the same row schema (with `"mode":"smoke"`)
//! into `results/` under the *current* directory — the verify harness runs
//! it from a scratch directory so the committed full-run artifact stays
//! untouched.

use picachu_bench::{banner, emit, json_obj, Json};
use picachu_llm::ModelConfig;
use picachu_serve::{
    chaos_schedule, run, summarize, ArrivalPattern, ChaosAction, ChaosConfig, RetryPolicy,
    ServeConfig, ShardSpec, Tenant,
};

fn tiny(name: &'static str, layers: usize) -> ModelConfig {
    ModelConfig { name, layers, d_model: 64, n_heads: 4, d_ff: 128, ..ModelConfig::gpt2() }
}

/// Two priority classes: interactive traffic with an SLO tight enough
/// that burst spikes trigger preemption and shedding, and bulk traffic
/// with a loose deadline that absorbs the chaos.
fn tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            name: "interactive",
            model: tiny("soak-interactive", 2),
            weight: 2,
            prompt: 32,
            decode: (4, 12),
            slo_ns: 1 << 21, // ~2.1 ms — tight: bursts must preempt or shed
            priority: 0,
        },
        Tenant {
            // a heavier model on a loose deadline: its long decode steps
            // are what the interactive tenant preempts
            name: "bulk",
            model: tiny("soak-bulk", 6),
            weight: 1,
            prompt: 48,
            decode: (8, 24),
            slo_ns: 1 << 26, // ~67 ms
            priority: 1,
        },
    ]
}

/// The soak configuration: `n_requests` bursty arrivals over a 4-shard
/// heterogeneous pool, with a chaos schedule scaled to the horizon.
fn soak_config(n_requests: usize) -> ServeConfig {
    let pool = vec![
        ShardSpec::picachu(),
        ShardSpec::Gemmini,
        ShardSpec::Gpu,
        ShardSpec::Cpu,
    ];
    let mean_gap_ns = 130_000.0;
    // the horizon estimate only scales the chaos schedule; the scheduler
    // tolerates events beyond the actual end of trace
    let horizon_est = (n_requests as f64 * mean_gap_ns) as u64;
    let chaos_cfg = ChaosConfig {
        crashes: 8,
        degradations: 8,
        compile_outages: 4,
        mean_outage_ns: (horizon_est / 24).max(1),
        ..ChaosConfig::new(0x50A4_0CAF, horizon_est)
    };
    ServeConfig {
        seed: 0x50A4_C4A0,
        n_requests,
        max_batch: 8,
        max_in_flight: 512,
        chaos: chaos_schedule(&chaos_cfg, pool.len()),
        retry: RetryPolicy::new(3, 250_000),
        preempt: true,
        shed_deadline_factor: Some(4.0),
        ..ServeConfig::new(
            tenants(),
            ArrivalPattern::Bursty { mean_gap_ns, mean_burst: 6 },
            pool,
        )
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (mode, n_requests, min_events) =
        if smoke { ("smoke", 3_000, 10_000u64) } else { ("full", 300_000, 1_000_000u64) };
    banner(
        "SOAK",
        "chaos soak: crashes, retries, preemption and shedding at event scale",
    );

    let cfg = soak_config(n_requests);
    let crashes =
        cfg.chaos.iter().filter(|e| e.action == ChaosAction::Crash).count();
    let degradations = cfg
        .chaos
        .iter()
        .filter(|e| matches!(e.action, ChaosAction::Degrade(_)))
        .count();
    let outages = cfg
        .chaos
        .iter()
        .filter(|e| matches!(e.action, ChaosAction::CompileOutage { .. }))
        .count();
    println!(
        "mode {mode}: {n_requests} requests, chaos = {crashes} crashes + \
         {degradations} degradations + {outages} compile outages"
    );

    let t0 = std::time::Instant::now();
    let report = run(&cfg);
    let wall = t0.elapsed();
    let audit_ok = report.audit.check().is_ok();
    let s = summarize(&report);
    let a = report.audit;
    let availability = if a.generated == 0 {
        1.0
    } else {
        a.completed as f64 / a.generated as f64
    };
    let shed_rate = if a.generated == 0 {
        0.0
    } else {
        a.shed as f64 / a.generated as f64
    };
    let retry_amplification = if a.completed == 0 {
        0.0
    } else {
        s.retries_of_completed as f64 / a.completed as f64
    };
    let killed: u64 = report.shards.iter().map(|sh| sh.killed_batches).sum();
    let wasted_ns: u64 = report.shards.iter().map(|sh| sh.wasted_ns).sum();

    println!(
        "{} events in {:.2} s ({:.0} events/s)",
        report.events,
        wall.as_secs_f64(),
        report.events as f64 / wall.as_secs_f64().max(1e-9)
    );
    println!(
        "availability {availability:.4}, shed rate {shed_rate:.4}, retry amplification \
         {retry_amplification:.4}"
    );
    println!(
        "completed {} / rejected {} / shed {} / abandoned {}, {} retries, {} preemptions, \
         {killed} killed batches",
        a.completed, s.rejected, a.shed, a.abandoned, a.retries, a.preemptions
    );
    println!(
        "p99 latency {:.3} ms, p99 ttft {:.3} ms, attainment {:.4}, audit {}",
        s.p99_latency_ns as f64 * 1e-6,
        s.p99_ttft_ns as f64 * 1e-6,
        s.slo_attainment,
        if audit_ok { "clean" } else { "VIOLATED" }
    );

    let row = json_obj(&[
        ("mode", Json::S(mode.to_string())),
        ("seed", Json::I(cfg.seed as i64)),
        ("shards", Json::I(cfg.pool.len() as i64)),
        ("requests", Json::I(n_requests as i64)),
        ("events", Json::I(report.events as i64)),
        ("horizon_ns", Json::I(report.horizon_ns as i64)),
        ("chaos_crashes", Json::I(crashes as i64)),
        ("chaos_degradations", Json::I(degradations as i64)),
        ("chaos_compile_outages", Json::I(outages as i64)),
        ("completed", Json::I(a.completed as i64)),
        ("rejected", Json::I(s.rejected as i64)),
        ("shed", Json::I(a.shed as i64)),
        ("abandoned", Json::I(a.abandoned as i64)),
        ("retries", Json::I(a.retries as i64)),
        ("preemptions", Json::I(a.preemptions as i64)),
        ("killed_batches", Json::I(killed as i64)),
        ("wasted_ns", Json::I(wasted_ns as i64)),
        ("availability", Json::F(availability)),
        ("shed_rate", Json::F(shed_rate)),
        ("retry_amplification", Json::F(retry_amplification)),
        ("p50_latency_ns", Json::I(s.p50_latency_ns as i64)),
        ("p99_latency_ns", Json::I(s.p99_latency_ns as i64)),
        ("p99_ttft_ns", Json::I(s.p99_ttft_ns as i64)),
        ("slo_attainment", Json::F(s.slo_attainment)),
        ("throughput_tokens_per_s", Json::F(s.throughput_tokens_per_s)),
        ("audit_ok", Json::B(audit_ok)),
    ]);
    emit("BENCH_soak", &[row]);

    // the artifact is written first so a violation leaves evidence, but a
    // soak that broke an invariant (or failed to reach scale) still fails
    assert!(audit_ok, "scheduler audit failed: {:?}", report.audit.check());
    assert!(
        report.events >= min_events,
        "soak too small: {} events < {min_events}",
        report.events
    );
    assert!(availability > 0.0, "chaos must not zero out the pool");
    if smoke {
        let again = run(&cfg);
        assert!(report == again, "chaos soak must replay bit-exactly");
        println!("soak smoke: OK (replay bit-exact)");
    }
}
