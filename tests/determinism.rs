//! Thread-count determinism: the parallel compilation service must be
//! semantically invisible. `PICACHU_THREADS=1` and `PICACHU_THREADS=8` (here
//! driven through the runtime's programmatic override, which takes precedence
//! over the environment) must produce bit-identical `Mapping`s for the full
//! kernel library, bit-identical `Breakdown`s for end-to-end execution, and
//! bit-identical search results for a `dse::search` run.
//!
//! Every snapshot compiles into its own fresh compile cache, so each thread
//! count actually re-compiles — a shared cache would let the second run
//! trivially replay the first run's mappings and the test would prove
//! nothing.
//!
//! The serving half extends the contract one layer up: a full
//! `picachu-serve` run over a PICACHU-backed pool (whose shard
//! construction and degraded-compile path both go through the parallel
//! compile service) must produce identical per-request records at 1 and 4
//! threads — and the same must hold under a full chaos schedule (crashes,
//! retries, preemption and shedding in the loop) at 1 and 8 threads.

use picachu::compiler::mapper::Mapping;
use picachu::dse::{search, SearchConfig, SearchResult};
use picachu::engine::{EngineConfig, PicachuEngine};
use picachu::runtime;
use picachu::{Breakdown, CompileCache};
use picachu::faults::FaultPlan;
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;
use picachu_num::DataFormat;
use picachu_serve::{
    chaos_schedule, run, ArrivalPattern, ChaosAction, ChaosConfig, ChaosEvent, RetryPolicy,
    ServeConfig, ServeReport, ShardSpec, Tenant,
};
use std::sync::Arc;

struct Snapshot {
    mappings: Vec<(String, Mapping)>,
    breakdown: Breakdown,
    dse: SearchResult,
}

fn snapshot(threads: usize) -> Snapshot {
    runtime::set_thread_override(Some(threads));
    let cache = Arc::new(CompileCache::new());

    // full kernel library, both formats (FP16 scalar + INT16 vectorized)
    let mut mappings = Vec::new();
    for format in [DataFormat::Fp16, DataFormat::Int16] {
        let config = EngineConfig { format, ..EngineConfig::default() };
        let mut engine = PicachuEngine::with_cache(config, cache.clone());
        for op in NonlinearOp::ALL {
            for (i, l) in engine.compile_op(op).to_vec().into_iter().enumerate() {
                mappings.push((format!("{format}/{op:?}/{i}"), l.mapping));
            }
        }
    }

    // end-to-end breakdown on a fresh engine (hits the cache warmed above)
    let mut engine = PicachuEngine::with_cache(EngineConfig::default(), cache);
    let breakdown = engine.execute_model(&ModelConfig::gpt2(), 128);

    // a DSE mini-search (parallel over candidates at `threads > 1`)
    let dse = search(&ModelConfig::gpt2(), &SearchConfig::smoke(99));

    runtime::set_thread_override(None);
    Snapshot { mappings, breakdown, dse }
}

#[test]
fn threads_1_and_8_are_bit_identical() {
    let serial = snapshot(1);
    let parallel = snapshot(8);

    assert_eq!(serial.mappings.len(), parallel.mappings.len());
    for ((name_s, m_s), (name_p, m_p)) in
        serial.mappings.iter().zip(parallel.mappings.iter())
    {
        assert_eq!(name_s, name_p);
        assert_eq!(m_s, m_p, "{name_s}: mapping diverged between 1 and 8 threads");
    }

    assert_eq!(
        serial.breakdown, parallel.breakdown,
        "end-to-end breakdown diverged between 1 and 8 threads"
    );

    assert_eq!(serial.dse.evaluated.len(), parallel.dse.evaluated.len());
    for (a, b) in serial.dse.evaluated.iter().zip(parallel.dse.evaluated.iter()) {
        assert_eq!(a, b, "DSE point diverged between 1 and 8 threads");
    }
    assert_eq!(serial.dse.frontier, parallel.dse.frontier);
}

/// One full serving run over a PICACHU + Gemmini pool, with a mid-trace
/// degradation so the degraded-compile path (also parallel) is on the
/// critical path of the schedule.
fn serve_snapshot(threads: usize) -> ServeReport {
    runtime::set_thread_override(Some(threads));
    let cfg = ServeConfig {
        seed: 0xDE7E_2217,
        n_requests: 30,
        max_batch: 4,
        log_batches: true,
        chaos: vec![ChaosEvent {
            at_ns: 40_000_000,
            shard: 0,
            action: ChaosAction::Degrade(FaultPlan::dead_tile(5)),
        }],
        ..ServeConfig::new(
            vec![Tenant {
                name: "t",
                model: ModelConfig {
                    name: "tiny-serve-det",
                    layers: 1,
                    d_model: 64,
                    n_heads: 4,
                    d_ff: 128,
                    ..ModelConfig::gpt2()
                },
                weight: 1,
                prompt: 24,
                decode: (2, 4),
                slo_ns: u64::MAX,
                priority: 0,
            }],
            ArrivalPattern::Bursty { mean_gap_ns: 200_000.0, mean_burst: 3 },
            vec![ShardSpec::picachu(), ShardSpec::Gemmini],
        )
    };
    let report = run(&cfg);
    runtime::set_thread_override(None);
    report
}

#[test]
fn serving_run_is_thread_count_invariant() {
    let serial = serve_snapshot(1);
    let parallel = serve_snapshot(4);

    serial.audit.check().unwrap();
    assert_eq!(
        serial.records, parallel.records,
        "per-request records diverged between 1 and 4 threads"
    );
    assert_eq!(
        serial.batch_log, parallel.batch_log,
        "batch schedule diverged between 1 and 4 threads"
    );
    assert_eq!(serial, parallel, "full serving report diverged");
}

/// The chaos extension of the serving snapshot: two priority tenants,
/// preemption and shedding on, and a generated chaos schedule (crashes +
/// degradations + a compile outage) over a PICACHU + Gemmini pool — the
/// crash-retry and degraded-recompile paths all ride the parallel compile
/// service and must still be schedule-invisible.
fn chaos_snapshot(threads: usize) -> ServeReport {
    runtime::set_thread_override(Some(threads));
    let tiny = |name: &'static str| ModelConfig {
        name,
        layers: 1,
        d_model: 64,
        n_heads: 4,
        d_ff: 128,
        ..ModelConfig::gpt2()
    };
    let tenants = vec![
        Tenant {
            name: "hi",
            model: tiny("tiny-chaos-hi"),
            weight: 2,
            prompt: 24,
            decode: (2, 4),
            slo_ns: 1 << 33,
            priority: 0,
        },
        Tenant {
            name: "lo",
            model: tiny("tiny-chaos-lo"),
            weight: 1,
            prompt: 16,
            decode: (2, 6),
            slo_ns: 1 << 34,
            priority: 1,
        },
    ];
    let pool = vec![ShardSpec::picachu(), ShardSpec::Gemmini];
    let cfg = ServeConfig {
        seed: 0xC4A0_2217,
        n_requests: 60,
        max_batch: 4,
        log_batches: true,
        chaos: chaos_schedule(&ChaosConfig::new(11, 20_000_000), pool.len()),
        retry: RetryPolicy::new(3, 250_000),
        preempt: true,
        shed_deadline_factor: Some(6.0),
        ..ServeConfig::new(
            tenants,
            ArrivalPattern::Bursty { mean_gap_ns: 150_000.0, mean_burst: 4 },
            pool,
        )
    };
    let report = run(&cfg);
    runtime::set_thread_override(None);
    report
}

#[test]
fn chaos_serving_run_is_thread_count_invariant() {
    let serial = chaos_snapshot(1);
    let parallel = chaos_snapshot(8);

    serial.audit.check().unwrap();
    assert!(serial.audit.completed > 0, "chaos must not starve the trace");
    assert_eq!(
        serial.records, parallel.records,
        "per-request records diverged between 1 and 8 threads under chaos"
    );
    assert_eq!(serial, parallel, "full chaos serving report diverged");
}
