//! `dse-faults`: the co-design search for LLaMA2-7B at sequence 256 over
//! 3×3–6×6 fabrics, both flavors, both formats, both unroll portfolios and
//! both repair policies, scored under two fault plans, from an empty
//! compile cache.
//!
//! The knob domain has 64 points and the budget is 400 candidate slots, so
//! every seed evaluates (nearly) the whole domain: the seed changes the
//! order candidates are drawn and evaluated in, not how much work the run
//! does. A search that samples a few dozen of many hundred points instead
//! varies several-fold in cost from seed to seed, because evaluations that
//! share a compiled kernel are nearly free.

use crate::trace::{digest, Tracer};
use crate::{mix, Ctx, Mode};
use picachu::dse::{dominates, search, DesignKnobs, SearchConfig};
use picachu::engine::{FabricKind, FallbackLevel, PicachuEngine};
use picachu::Accelerator;
use picachu_faults::FaultPlan;
use picachu_llm::trace::model_trace;
use picachu_llm::ModelConfig;
use picachu_num::DataFormat;
use std::fmt::Write as _;
use std::time::Instant;

const GEOMETRIES: [(usize, usize); 4] = [(3, 3), (4, 4), (5, 5), (6, 6)];

/// Knob combinations: geometries × 2 flavors × 2 formats × 2 unroll
/// portfolios × 2 repair policies (one buffer size).
const DOMAIN: usize = GEOMETRIES.len() * 16;

fn config(seed: u64) -> SearchConfig {
    SearchConfig {
        seed: mix(seed, 0xD5E),
        geometries: GEOMETRIES.to_vec(),
        buffers_kb: vec![40],
        population: 40,
        generations: 10,
        fault_plans: vec![
            FaultPlan::dead_tile(5),
            FaultPlan::dead_link(0, 1).with_dead_tile(8),
        ],
        ..SearchConfig::default()
    }
}

/// Compact knob code, e.g. `4x4-het-40-FP16-0-1`, passed to the replay.
fn encode(k: &DesignKnobs) -> String {
    let fabric = match k.fabric {
        FabricKind::Heterogeneous => "het",
        FabricKind::Universal => "uni",
    };
    format!(
        "{}x{}-{fabric}-{}-{}-{}-{}",
        k.cgra_rows,
        k.cgra_cols,
        k.buffer_kb,
        k.format,
        u8::from(k.lean_unroll),
        u8::from(k.incremental_repair)
    )
}

fn decode(code: &str) -> Result<DesignKnobs, String> {
    let bad = || format!("malformed knob code {code:?}");
    let parts: Vec<&str> = code.split('-').collect();
    let [geom, fabric, kb, format, lean, repair] = parts[..] else {
        return Err(bad());
    };
    let (rows, cols) = geom.split_once('x').ok_or_else(bad)?;
    Ok(DesignKnobs {
        cgra_rows: rows.parse().map_err(|_| bad())?,
        cgra_cols: cols.parse().map_err(|_| bad())?,
        fabric: match fabric {
            "het" => FabricKind::Heterogeneous,
            "uni" => FabricKind::Universal,
            _ => return Err(bad()),
        },
        buffer_kb: kb.parse().map_err(|_| bad())?,
        format: match format {
            "FP16" => DataFormat::Fp16,
            "INT16" => DataFormat::Int16,
            _ => return Err(bad()),
        },
        lean_unroll: lean == "1",
        incremental_repair: repair == "1",
    })
}

/// One archive line: knobs plus the exact bits of every objective.
fn render(out: &mut String, k: &DesignKnobs, objectives: [f64; 5]) {
    let _ = write!(out, "{}", encode(k));
    for v in objectives {
        let _ = write!(out, " {:016x}", v.to_bits());
    }
    out.push('\n');
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    match ctx.mode {
        Mode::Replay => replay(ctx),
        Mode::Plain | Mode::Traced => timed(ctx),
    }
}

fn timed(ctx: &mut Ctx) -> Result<(), String> {
    let model = ModelConfig::llama2_7b();
    let cfg = config(ctx.seed);
    ctx.setup_done();

    let started = Instant::now();
    let result = ctx.tracer.span("dse", |_| search(&model, &cfg));
    ctx.timed_done(started);

    let points = &result.evaluated;
    if points.is_empty() {
        return Err("search evaluated no design point".into());
    }
    for f in &result.frontier {
        if !points.contains(f) {
            return Err(format!("frontier point {f} is not in the archive"));
        }
        if let Some(p) = points
            .iter()
            .find(|p| dominates(&p.objectives(), &f.objectives()))
        {
            return Err(format!("frontier point {f} is dominated by {p}"));
        }
    }
    let mut text = String::new();
    for p in points {
        render(
            &mut text,
            &p.knobs,
            [
                p.latency,
                p.energy_nj,
                p.area_mm2,
                p.resilience,
                p.utilization,
            ],
        );
    }
    let slots = cfg.generations * cfg.population;
    let n = points.len() as f64;
    let best_latency = points
        .iter()
        .map(|p| p.latency)
        .fold(f64::INFINITY, f64::min);
    let mean_resilience = points.iter().map(|p| p.resilience).sum::<f64>() / n;
    let knobs: Vec<String> = points.iter().map(|p| encode(&p.knobs)).collect();
    let r = &mut ctx.report;
    r.num("items", n);
    r.num("done_ratio", n / DOMAIN as f64);
    r.num("sim_cycles", best_latency);
    r.num("sim_quality", mean_resilience);
    r.num("dse.points", n);
    r.num("dse.dropped", (slots - points.len()) as f64);
    r.num("dse.frontier", result.frontier.len() as f64);
    r.num("dse.mean_resilience", mean_resilience);
    r.text("digest", &digest(&text));
    r.text("knobs", &knobs.join(","));
    Ok(())
}

/// Scores the archive's knobs one at a time through the same public calls
/// the search makes for a candidate, with a span around each layer.
fn replay(ctx: &mut Ctx) -> Result<(), String> {
    let model = ModelConfig::llama2_7b();
    let cfg = config(ctx.seed);
    let knobs = ctx
        .knobs
        .iter()
        .map(|c| decode(c))
        .collect::<Result<Vec<_>, _>>()?;
    if knobs.is_empty() {
        return Err("replay needs the archive's --knobs".into());
    }
    ctx.setup_done();
    let mut text = String::new();
    for k in &knobs {
        let objectives = evaluate(&mut ctx.tracer, &model, &cfg, k)?;
        render(&mut text, k, objectives);
    }
    ctx.report.text("digest", &digest(&text));
    Ok(())
}

/// `[latency, energy, area, resilience, utilization]` of one candidate.
fn evaluate(
    t: &mut Tracer,
    model: &ModelConfig,
    cfg: &SearchConfig,
    k: &DesignKnobs,
) -> Result<[f64; 5], String> {
    let mut engine = PicachuEngine::new(k.engine_config());
    let ops = model.nonlinear_ops();
    t.span("compile", |_| engine.prewarm(&ops))
        .map_err(|e| e.to_string())?;
    let trace = t.span("llm", |t| {
        let tr = model_trace(model, cfg.seq);
        t.count("trace_ops", tr.len() as f64);
        tr
    });
    let b = t.span("dispatch", |t| {
        t.count("trace_ops", trace.len() as f64);
        engine.execute_trace(&trace)
    });
    let (utilization, energy, area) = t.span("account", |_| {
        // the search's own fallback when nothing mapped
        let u = engine.cgra_utilization(&ops).ok().flatten().unwrap_or(0.7);
        (u, engine.energy_nj_at_utilization(&b, u), engine.area_mm2())
    });
    let resilience = t.span("compile.degraded", |t| {
        let mut sum = 0.0;
        for plan in &cfg.fault_plans {
            let mut worst = 1.0f64;
            let mut rejected = false;
            for &op in &ops {
                t.count("compiles", 1.0);
                match engine.compile_op_degraded(op, plan) {
                    Ok(d) => {
                        if d.fallback == FallbackLevel::Incremental {
                            t.count("repaired", 1.0);
                        }
                        worst = worst.max(d.ii_inflation);
                    }
                    Err(_) => {
                        rejected = true;
                        break;
                    }
                }
            }
            if !rejected {
                sum += 1.0 / worst.max(1.0);
            }
        }
        sum / cfg.fault_plans.len() as f64
    });
    Ok([b.total(), energy, area, resilience, utilization])
}
