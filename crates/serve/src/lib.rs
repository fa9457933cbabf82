//! # picachu-serve — deterministic multi-tenant serving simulator
//!
//! The ROADMAP's north star is serving heavy LLM traffic, and PR 5's
//! staged pipeline made steady-state execution dispatch-bound — so this
//! crate puts a serving layer on top of the unified [`Accelerator`]
//! contract: a discrete-event simulator with seeded arrival traces
//! (Poisson / bursty / diurnal), continuous batching of decode steps
//! across concurrent sequences, admission control, cost-model-driven
//! placement over heterogeneous shard pools (PICACHU, Gemmini-class, the
//! A100 roofline, …), fault-driven re-pricing with live rebalancing, and
//! per-request SLO accounting.
//!
//! Since the chaos PR the layer is also *fault-tolerant at runtime*: a
//! seeded [`chaos`] schedule crashes, degrades, recovers and
//! compile-blocks shards mid-run; crashed batches retry on survivors under
//! a bounded-backoff [`RetryPolicy`] budget (typed
//! [`Outcome::Abandoned`] when it runs out); per-tenant priority classes
//! drive decode-batch preemption for SLO-threatened prefills; and load
//! shedding (typed `Shed` rejection) protects the backlog under overload.
//!
//! Five scheduler invariants are machine-checked on every run (see
//! [`Audit`]), not just benchmarked:
//!
//! 1. **Conservation** — every admitted request completes, is rejected
//!    with a typed reason, or is abandoned, exactly once.
//! 2. **Work conservation** — no startable shard idles while compatible
//!    work waits anywhere in the pool.
//! 3. **Batching legality** — a batch never mixes tenants, phases or
//!    shape buckets.
//! 4. **Bit-exact replay** — a run is a pure function of its
//!    [`ServeConfig`], seed included — chaos included.
//! 5. **Conservation under failure** — tokens committed by completed
//!    batch steps equal tokens reported by terminal states: a killed
//!    batch commits nothing, a retried request never double-counts.
//!
//! See DESIGN.md §9 (serving model) and §12 (chaos model) and
//! `tests/serve.rs` for the property suite that drives these invariants
//! under random traces × pool configurations × chaos schedules with
//! shrinking, replayable counterexamples. The `serve_soak` bench bin runs
//! the million-event chaos soak behind `results/BENCH_soak.json`.
//!
//! [`Accelerator`]: picachu_backend::Accelerator

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arrivals;
pub mod chaos;
pub mod metrics;
pub mod pool;
pub mod sched;

pub use arrivals::{arrival_trace, ArrivalPattern, Request, Tenant};
pub use chaos::{chaos_schedule, default_plan_menu, ChaosAction, ChaosConfig, ChaosEvent};
pub use metrics::{summarize, SloSummary};
pub use picachu_faults::RetryPolicy;
pub use pool::{bucket_log2, CostKey, Shard, ShardReport, ShardSpec};
pub use sched::{
    run, Audit, BatchRecord, Outcome, RejectReason, RequestRecord, ServeConfig, ServeReport,
    PREEMPT_TTFT_DIVISOR,
};

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_llm::ModelConfig;

    fn tiny(name: &'static str, layers: usize) -> ModelConfig {
        ModelConfig { name, layers, d_model: 64, n_heads: 4, d_ff: 128, ..ModelConfig::gpt2() }
    }

    fn cfg() -> ServeConfig {
        ServeConfig::new(
            vec![Tenant {
                name: "t0",
                model: tiny("tiny-a", 2),
                weight: 1,
                prompt: 32,
                decode: (2, 6),
                slo_ns: u64::MAX,
                priority: 0,
            }],
            ArrivalPattern::Poisson { mean_gap_ns: 50_000.0 },
            vec![ShardSpec::Gemmini, ShardSpec::Gpu],
        )
    }

    #[test]
    fn smoke_run_is_clean_and_replayable() {
        let c = ServeConfig { n_requests: 60, log_batches: true, ..cfg() };
        let a = run(&c);
        a.audit.check().unwrap();
        assert_eq!(a.records.len(), 60);
        assert_eq!(a.audit.completed, 60);
        let b = run(&c);
        assert_eq!(a, b, "replay must be bit-exact");
        let s = summarize(&a);
        assert!(s.throughput_tokens_per_s > 0.0);
        assert!(s.p50_latency_ns > 0 && s.p99_latency_ns >= s.p50_latency_ns);
    }

    #[test]
    fn crash_and_recover_mid_trace_keeps_a_clean_audit() {
        let c = ServeConfig {
            n_requests: 80,
            chaos: vec![
                ChaosEvent { at_ns: 300_000, shard: 0, action: ChaosAction::Crash },
                ChaosEvent { at_ns: 2_000_000, shard: 0, action: ChaosAction::Recover },
            ],
            ..cfg()
        };
        let a = run(&c);
        a.audit.check().unwrap();
        assert_eq!(a.records.len(), 80);
        // one healthy shard survives the whole time, so nothing is lost
        assert_eq!(a.audit.completed + a.audit.abandoned, a.audit.admitted);
        assert!(a.audit.completed > 0);
        let b = run(&c);
        assert_eq!(a, b, "chaos replay must be bit-exact");
    }

    #[test]
    fn different_seeds_differ() {
        let c = ServeConfig { n_requests: 40, ..cfg() };
        let a = run(&c);
        let b = run(&ServeConfig { seed: c.seed + 1, ..c });
        assert_ne!(a.records, b.records);
    }
}
