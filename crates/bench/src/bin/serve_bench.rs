//! Multi-tenant serving benchmark: throughput-vs-SLO curves over arrival
//! pattern × pool configuration × offered load, through the picachu-serve
//! discrete-event scheduler. Load levels are self-calibrating — a sparse
//! probe run measures the pool's unloaded p50 latency, the SLO is pinned
//! at 3× that, and the sweep offers light/moderate/heavy traffic relative
//! to per-shard service time — so the curves stay meaningful as cost
//! models evolve.
//!
//! `--smoke` runs one short seeded trace, machine-checks the scheduler
//! invariants and bit-exact replay, and exercises the JSON emission path
//! against a temp directory instead of `results/`.

use picachu_bench::{banner, emit, json_obj, Json};
use picachu_llm::ModelConfig;
use picachu_serve::{
    run, summarize, ArrivalPattern, ServeConfig, ServeReport, ShardSpec, Tenant,
};

fn tenants(slo_ns: u64) -> Vec<Tenant> {
    vec![
        Tenant {
            name: "chat",
            model: ModelConfig::gpt2(),
            weight: 3,
            prompt: 128,
            decode: (8, 24),
            slo_ns,
            priority: 0,
        },
        Tenant {
            name: "code",
            model: ModelConfig::llama2_7b(),
            weight: 1,
            prompt: 96,
            decode: (4, 16),
            slo_ns,
            priority: 0,
        },
    ]
}

/// Unloaded p50 end-to-end latency of the pool: 8 requests a simulated
/// second apart, so nothing ever queues.
fn calibrate(pool: &[ShardSpec]) -> u64 {
    let cfg = ServeConfig {
        seed: 0xCA11_B4A7,
        n_requests: 8,
        ..ServeConfig::new(
            tenants(u64::MAX),
            ArrivalPattern::Poisson { mean_gap_ns: 1e9 },
            pool.to_vec(),
        )
    };
    let report = run(&cfg);
    check(&cfg, &report);
    summarize(&report).p50_latency_ns.max(1)
}

/// Machine-checks the run's invariants — the bench refuses to publish
/// numbers from a schedule that failed its own audit or doesn't replay.
fn check(cfg: &ServeConfig, report: &ServeReport) {
    if let Err(e) = report.audit.check() {
        panic!("scheduler audit failed: {e}");
    }
    assert_eq!(report.records.len(), cfg.n_requests, "conservation");
    assert!(*report == run(cfg), "replay must be bit-exact");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        return smoke_main();
    }

    banner("SERVE", "multi-tenant serving: throughput vs SLO attainment");
    let pools: Vec<(&str, Vec<ShardSpec>)> = vec![
        ("4xPICACHU", vec![ShardSpec::picachu(); 4]),
        (
            "PICACHU+Gemmini+A100",
            vec![ShardSpec::picachu(), ShardSpec::Gemmini, ShardSpec::Gpu],
        ),
    ];
    let mut lines = Vec::new();
    for (pool_name, pool) in &pools {
        let p50_unloaded = calibrate(pool);
        let slo_ns = 3 * p50_unloaded;
        let per_shard_service_ns = (p50_unloaded / pool.len() as u64).max(1) as f64;
        println!(
            "\npool {pool_name}: unloaded p50 {:.3} ms, SLO {:.3} ms",
            p50_unloaded as f64 * 1e-6,
            slo_ns as f64 * 1e-6
        );
        println!(
            "{:<10} {:<8} {:>12} {:>10} {:>10} {:>9} {:>12} {:>12}",
            "pattern", "load", "p99 ms", "ttft ms", "attain", "rejected", "tok/s", "goodput"
        );
        for (load_name, factor) in [("light", 8.0), ("moderate", 2.0), ("heavy", 0.5)] {
            let mean_gap_ns = per_shard_service_ns * factor;
            let patterns = [
                ArrivalPattern::Poisson { mean_gap_ns },
                ArrivalPattern::Bursty { mean_gap_ns, mean_burst: 4 },
                ArrivalPattern::Diurnal { mean_gap_ns, period_ns: mean_gap_ns * 64.0 },
            ];
            for pattern in patterns {
                let cfg = ServeConfig {
                    seed: 0x5E2F_BE4C,
                    n_requests: 150,
                    max_batch: 8,
                    max_in_flight: 64,
                    ..ServeConfig::new(tenants(slo_ns), pattern, pool.clone())
                };
                let report = run(&cfg);
                check(&cfg, &report);
                let s = summarize(&report);
                println!(
                    "{:<10} {:<8} {:>12.3} {:>10.3} {:>10.3} {:>9} {:>12.1} {:>12.1}",
                    pattern.label(),
                    load_name,
                    s.p99_latency_ns as f64 * 1e-6,
                    s.p99_ttft_ns as f64 * 1e-6,
                    s.slo_attainment,
                    s.rejected,
                    s.throughput_tokens_per_s,
                    s.goodput_tokens_per_s
                );
                lines.push(json_obj(&[
                    ("pool", Json::S(pool_name.to_string())),
                    ("pattern", Json::S(pattern.label().to_string())),
                    ("load", Json::S(load_name.to_string())),
                    ("mean_gap_ns", Json::F(mean_gap_ns)),
                    ("slo_ns", Json::I(slo_ns as i64)),
                    ("requests", Json::I(cfg.n_requests as i64)),
                    ("completed", Json::I(s.completed as i64)),
                    ("rejected", Json::I(s.rejected as i64)),
                    ("p50_latency_ns", Json::I(s.p50_latency_ns as i64)),
                    ("p99_latency_ns", Json::I(s.p99_latency_ns as i64)),
                    ("p50_ttft_ns", Json::I(s.p50_ttft_ns as i64)),
                    ("p99_ttft_ns", Json::I(s.p99_ttft_ns as i64)),
                    ("slo_attainment", Json::F(s.slo_attainment)),
                    ("throughput_tokens_per_s", Json::F(s.throughput_tokens_per_s)),
                    ("goodput_tokens_per_s", Json::F(s.goodput_tokens_per_s)),
                ]));
            }
        }
    }
    emit("BENCH_serve", &lines);
}

fn smoke_main() {
    banner("SERVE", "serving smoke: invariants + emission on a short trace");
    let cfg = ServeConfig {
        seed: 0x5E2F_50FE,
        n_requests: 24,
        max_batch: 4,
        ..ServeConfig::new(
            vec![Tenant {
                name: "smoke",
                model: ModelConfig {
                    name: "tiny-smoke",
                    layers: 2,
                    d_model: 64,
                    n_heads: 4,
                    d_ff: 128,
                    ..ModelConfig::gpt2()
                },
                weight: 1,
                prompt: 32,
                decode: (2, 6),
                slo_ns: u64::MAX,
                priority: 0,
            }],
            ArrivalPattern::Bursty { mean_gap_ns: 200_000.0, mean_burst: 3 },
            vec![ShardSpec::Gemmini, ShardSpec::Gpu],
        )
    };
    let report = run(&cfg);
    check(&cfg, &report);
    let s = summarize(&report);
    assert!(s.completed > 0 && s.throughput_tokens_per_s > 0.0, "smoke served nothing");
    println!(
        "smoke: {} completed, p99 {:.3} ms, {:.1} tok/s",
        s.completed,
        s.p99_latency_ns as f64 * 1e-6,
        s.throughput_tokens_per_s
    );
    // exercise the emission path against a scratch directory, then verify
    // the artifact round-trips as one JSON object per line
    let scratch = std::env::temp_dir().join("picachu_serve_smoke");
    std::fs::create_dir_all(&scratch).expect("temp scratch dir");
    std::env::set_current_dir(&scratch).expect("enter scratch dir");
    let line = json_obj(&[
        ("pool", Json::S("smoke".into())),
        ("completed", Json::I(s.completed as i64)),
        ("throughput_tokens_per_s", Json::F(s.throughput_tokens_per_s)),
    ]);
    emit("BENCH_serve_smoke", &[line]);
    let written = std::fs::read_to_string("results/BENCH_serve_smoke.json")
        .expect("smoke artifact must exist");
    assert!(
        written.lines().count() == 1 && written.starts_with('{') && written.trim().ends_with('}'),
        "malformed smoke artifact: {written:?}"
    );
    println!("serve smoke: OK");
}
