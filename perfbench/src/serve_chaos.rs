//! `serve-chaos`: the soak's 300k bursty requests through a 4-shard
//! PICACHU/Gemmini/GPU/CPU pool under 8 crashes, 8 degradations and 4
//! compile outages, with preemption, retry and shedding on. The trace runs
//! as four independent 75k-request windows, each with a quarter of the
//! chaos budget and its own arrival and chaos seeds: one long chaos draw
//! makes the modelled outcome swing with a single crash's placement, four
//! draws average it.

use crate::trace::digest;
use crate::{mix, Ctx, Mode};
use picachu_llm::trace::{batched_decode_trace, model_trace};
use picachu_llm::ModelConfig;
use picachu_serve::{
    arrival_trace, bucket_log2, chaos_schedule, summarize, ArrivalPattern, Audit, ChaosAction,
    ChaosConfig, RetryPolicy, ServeConfig, ServeReport, Shard, ShardSpec, Tenant,
};
use std::time::Instant;

const WINDOWS: u64 = 4;
const REQUESTS: usize = 300_000 / WINDOWS as usize;
const MEAN_GAP_NS: f64 = 130_000.0;

fn tiny(name: &'static str, layers: usize) -> ModelConfig {
    ModelConfig {
        name,
        layers,
        d_model: 64,
        n_heads: 4,
        d_ff: 128,
        ..ModelConfig::gpt2()
    }
}

/// Interactive traffic on a tight SLO (bursts must preempt or shed) and
/// bulk traffic on a loose one, whose long decode steps get preempted.
fn tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            name: "interactive",
            model: tiny("soak-interactive", 2),
            weight: 2,
            prompt: 32,
            decode: (4, 12),
            slo_ns: 1 << 21,
            priority: 0,
        },
        Tenant {
            name: "bulk",
            model: tiny("soak-bulk", 6),
            weight: 1,
            prompt: 48,
            decode: (8, 24),
            slo_ns: 1 << 26,
            priority: 1,
        },
    ]
}

/// Window `window` of the trace; its arrival and chaos seeds derive from the
/// run seed and the window index.
fn config(seed: u64, window: u64) -> ServeConfig {
    let seed = mix(seed, (window + 1) << 40);
    let pool = vec![
        ShardSpec::picachu(),
        ShardSpec::Gemmini,
        ShardSpec::Gpu,
        ShardSpec::Cpu,
    ];
    let horizon_est = (REQUESTS as f64 * MEAN_GAP_NS) as u64;
    let chaos = ChaosConfig {
        crashes: 8 / WINDOWS as usize,
        degradations: 8 / WINDOWS as usize,
        compile_outages: 4 / WINDOWS as usize,
        mean_outage_ns: (horizon_est / 24).max(1),
        ..ChaosConfig::new(mix(seed, 0xC4A0), horizon_est)
    };
    ServeConfig {
        seed: mix(seed, 0x5E4E),
        n_requests: REQUESTS,
        max_batch: 8,
        max_in_flight: 512,
        chaos: chaos_schedule(&chaos, pool.len()),
        retry: RetryPolicy::new(3, 250_000),
        preempt: true,
        shed_deadline_factor: Some(4.0),
        ..ServeConfig::new(
            tenants(),
            ArrivalPattern::Bursty {
                mean_gap_ns: MEAN_GAP_NS,
                mean_burst: 6,
            },
            pool,
        )
    }
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    match ctx.mode {
        Mode::Replay => replay(ctx),
        Mode::Plain | Mode::Traced => timed(ctx),
    }
}

fn timed(ctx: &mut Ctx) -> Result<(), String> {
    let cfgs: Vec<ServeConfig> = (0..WINDOWS).map(|w| config(ctx.seed, w)).collect();
    // what a serving node does before taking traffic: draw the arrival
    // traces, compile the PICACHU kernels and measure every shard's cost
    // table (the kernels stay in the process-wide compile cache `run` uses)
    for cfg in &cfgs {
        let n = arrival_trace(cfg.pattern, &cfg.tenants, cfg.n_requests, cfg.seed).len();
        if n != cfg.n_requests {
            return Err(format!(
                "arrival trace has {n} of {} requests",
                cfg.n_requests
            ));
        }
    }
    let pool = &cfgs[0];
    for (id, spec) in pool.pool.iter().enumerate() {
        Shard::new(id, spec.clone(), &pool.tenants, pool.max_batch);
    }
    ctx.setup_done();

    let started = Instant::now();
    let reports: Vec<ServeReport> = cfgs
        .iter()
        .map(|cfg| ctx.tracer.span("serve.sched", |_| picachu_serve::run(cfg)))
        .collect();
    ctx.timed_done(started);

    // one report over all windows, for the SLO summary
    let mut all = ServeReport {
        records: Vec::new(),
        shards: Vec::new(),
        audit: Audit::default(),
        horizon_ns: 0,
        events: 0,
        batch_log: Vec::new(),
    };
    let (mut batches, mut preemptions, mut retries) = (0u64, 0u64, 0u64);
    let mut text = String::new();
    for (cfg, r) in cfgs.iter().zip(reports) {
        r.audit
            .check()
            .map_err(|e| format!("scheduler audit: {e}"))?;
        if r.records.len() != cfg.n_requests {
            return Err(format!(
                "{} records for {} requests",
                r.records.len(),
                cfg.n_requests
            ));
        }
        text.push_str(&format!(
            "{} {} {:?} {:?}\n",
            r.events, r.horizon_ns, r.audit, r.shards
        ));
        batches += r.shards.iter().map(|sh| sh.batches).sum::<u64>();
        preemptions += r.audit.preemptions;
        retries += r.audit.retries;
        all.records.extend(r.records);
        all.horizon_ns += r.horizon_ns;
        all.events += r.events;
    }
    let s = summarize(&all);
    text.push_str(&format!("{s:?}"));
    let r = &mut ctx.report;
    r.num("items", all.events as f64);
    r.num("done_ratio", s.completed as f64 / s.generated as f64);
    // the engine clock is 1 GHz, so simulated ns are cycles
    r.num("sim_cycles", s.p50_ttft_ns as f64);
    r.num("sim_quality", s.slo_attainment);
    r.num("serve.events", all.events as f64);
    r.num("serve.batches", batches as f64);
    r.num("serve.preemptions", preemptions as f64);
    r.num("serve.retries", retries as f64);
    r.num("serve.shed", s.shed as f64);
    r.num("serve.sim_p99_ttft_cycles", s.p99_ttft_ns as f64);
    r.num("serve.sim_goodput_tok_s", s.goodput_tokens_per_s);
    r.text("digest", &digest(&text));
    Ok(())
}

/// Times the pieces `run` does before its event loop — arrival trace,
/// shard build and the degradations the chaos schedule applies — one public
/// call at a time for every window, then re-derives the PICACHU shard's
/// cost table from outside (trace generation, one dispatch per tenant,
/// estimates) and checks it equals the table the shard measured.
fn replay(ctx: &mut Ctx) -> Result<(), String> {
    let cfgs: Vec<ServeConfig> = (0..WINDOWS).map(|w| config(ctx.seed, w)).collect();
    let tenants = &cfgs[0].tenants;
    let picachu = ShardSpec::picachu();
    let mut backend = ctx
        .tracer
        .span("compile", |_| picachu.build_warmed(tenants));
    ctx.setup_done();

    let mut shards: Vec<Shard> = Vec::new();
    for cfg in &cfgs {
        ctx.tracer.span("serve.arrivals", |_| {
            arrival_trace(cfg.pattern, tenants, cfg.n_requests, cfg.seed).len()
        });
        shards = ctx.tracer.span("serve.pool_build", |_| {
            cfg.pool
                .iter()
                .enumerate()
                .map(|(id, spec)| Shard::new(id, spec.clone(), tenants, cfg.max_batch))
                .collect()
        });
        for ev in &cfg.chaos {
            if let ChaosAction::Degrade(plan) = &ev.action {
                let shard = &mut shards[ev.shard];
                ctx.tracer.span("serve.apply_fault", |t| {
                    t.count("faults_applied", 1.0);
                    shard.apply_fault(plan, tenants);
                });
            }
        }
    }

    let max_batch_pow2 = cfgs[0].max_batch.max(1).next_power_of_two() as u32;
    let mut table = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        let warm = ctx.tracer.span("llm", |tr| {
            let v = batched_decode_trace(&t.model, t.prompt.max(1), 1);
            tr.count("trace_ops", v.len() as f64);
            v
        });
        ctx.tracer.span("dispatch", |tr| {
            tr.count("trace_ops", warm.len() as f64);
            backend.execute_trace(&warm)
        });
        let pb = bucket_log2(t.prompt);
        let mut shapes = vec![(true, pb, 1u32)];
        for bucket in pb..=bucket_log2(t.prompt + t.decode.1) {
            let mut batch = 1u32;
            while batch <= max_batch_pow2 {
                shapes.push((false, bucket, batch));
                batch *= 2;
            }
        }
        for (prefill, bucket, batch) in shapes {
            let trace = ctx.tracer.span("llm", |tr| {
                let v = if prefill {
                    model_trace(&t.model, 1usize << bucket)
                } else {
                    batched_decode_trace(&t.model, 1usize << bucket, batch as usize)
                };
                tr.count("trace_ops", v.len() as f64);
                v
            });
            let est = ctx
                .tracer
                .span("dispatch.estimate", |_| backend.estimate_trace(&trace));
            table.push(((ti, prefill, bucket, batch), (est.ceil() as u64).max(1)));
        }
    }

    table.sort_unstable();
    let measured: Vec<_> = shards[0]
        .cost_table()
        .into_iter()
        .map(|(k, c)| ((k.tenant, k.prefill, k.bucket, k.batch), c))
        .collect();
    if table != measured {
        return Err("cost table re-derived from outside differs from the shard's".into());
    }
    Ok(())
}
