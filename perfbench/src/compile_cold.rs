//! `compile-cold`: the nine-op Table 1 kernel library compiled from an
//! empty cache through `PicachuEngine::prewarm` on a 4×4, an 8×8 and a
//! 16×16 fabric. The mapper does nearly all the work.

use crate::trace::{digest, Tracer};
use crate::{mix, Ctx, Mode};
use picachu::dse::FULL_UNROLL;
use picachu::engine::{kernel_for, EngineConfig, PicachuEngine};
use picachu_cgra::{CgraConfig, CgraSimulator};
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::{pnr_report, route_mapping, Mapping, ResourceMask, SearchGrid};
use picachu_ir::dfg::Dfg;
use picachu_nonlinear::NonlinearOp;
use std::fmt::Write as _;
use std::time::Instant;

/// Fabrics as `(rows, cols, unroll portfolio)`: paper scale, the largest
/// greedy fabric, and an annealed fabric with the oracle's 16×16 portfolio.
const FABRICS: [(usize, usize, &[usize]); 3] = [
    (4, 4, &FULL_UNROLL),
    (8, 8, &FULL_UNROLL),
    (16, 16, &[1, 2]),
];

/// Fabrics above this many tiles take the annealed Place with the Route
/// acceptance gate, so every mapping there must be congestion-free.
const ROUTE_GATED_TILES: usize = 64;

/// Reference shape `kernel_cycles` is priced at: 256 rows of a
/// 4096-channel tensor (LLaMA2-7B's hidden width at sequence 256).
const REF_ROWS: usize = 256;
const REF_CHANNEL: usize = 4096;

/// Iteration counts each loop is replayed for on the simulator.
const SIM_ITERATIONS: [u64; 3] = [1, 2, 64];

fn configs(seed: u64) -> Vec<EngineConfig> {
    FABRICS
        .iter()
        .map(|&(rows, cols, unroll)| EngineConfig {
            cgra_rows: rows,
            cgra_cols: cols,
            unroll_candidates: unroll.to_vec(),
            seed: mix(seed, 0xC0_1D),
            ..EngineConfig::default()
        })
        .collect()
}

/// One line of the canonical rendering both the timed phase and the replay
/// produce: equal text means bit-identical mappings.
fn render(
    out: &mut String,
    spec: &CgraSpec,
    op: NonlinearOp,
    label: &str,
    uf: usize,
    vf: usize,
    m: &Mapping,
) {
    let _ = write!(
        out,
        "{}x{} {} {label} uf{uf} vf{vf} ii{} len{}:",
        spec.rows,
        spec.cols,
        op.name(),
        m.ii,
        m.schedule_len
    );
    for p in &m.placements {
        let _ = write!(out, " {}@{}", p.tile, p.time);
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
    let mut engines: Vec<PicachuEngine> = configs(ctx.seed)
        .into_iter()
        .map(PicachuEngine::new)
        .collect();
    ctx.setup_done();

    let started = Instant::now();
    for e in engines.iter_mut() {
        ctx.tracer
            .span("compile", |_| e.prewarm(&NonlinearOp::ALL))
            .map_err(|e| e.to_string())?;
    }
    ctx.timed_done(started);

    let mut text = String::new();
    let (mut loops, mut congested, mut kernel_cycles) = (0u64, 0u64, 0u64);
    for e in engines.iter_mut() {
        let spec = e.spec().clone();
        let mask = ResourceMask::full(&spec);
        for op in NonlinearOp::ALL {
            let compiled = e.try_compile_op(op).map_err(|e| e.to_string())?;
            for (i, l) in compiled.iter().enumerate() {
                let dfg = e.lowered_dfg(op, i, l.uf, l.vf);
                ctx.tracer.span("cgra_sim", |t| {
                    t.count("loops_checked", 1.0);
                    check_on_simulator(&spec, &dfg, &l.label, &l.mapping)
                })?;
                let report = pnr_report(&dfg, &spec, &mask, &l.mapping)
                    .ok_or_else(|| format!("{}: accepted mapping does not route", l.label))?;
                if !report.congestion_free {
                    if spec.len() > ROUTE_GATED_TILES {
                        return Err(format!(
                            "{} on {}x{}: accepted mapping oversubscribes the channel model",
                            l.label, spec.rows, spec.cols
                        ));
                    }
                    congested += 1;
                }
                render(&mut text, &spec, op, &l.label, l.uf, l.vf, &l.mapping);
                loops += 1;
            }
            kernel_cycles += e.nonlinear_compute_cycles(op, REF_ROWS, REF_CHANNEL);
        }
    }
    let r = &mut ctx.report;
    r.num("items", loops as f64);
    r.num("done_ratio", 1.0);
    r.num("sim_cycles", kernel_cycles as f64);
    r.num("sim_quality", (loops - congested) as f64 / loops as f64);
    r.num("route.congested_loops", congested as f64);
    r.num("compile.kernel_cycles", kernel_cycles as f64);
    r.text("digest", &digest(&text));
    Ok(())
}

/// Replays a compiled loop on the cycle-level simulator: cycles, II and
/// prologue must equal the mapping's analytical values exactly.
fn check_on_simulator(
    spec: &CgraSpec,
    dfg: &Dfg,
    label: &str,
    m: &Mapping,
) -> Result<(), String> {
    let config = CgraConfig::from_mapping(dfg, m, spec);
    let sim = CgraSimulator::new(spec, dfg, &config);
    for iters in SIM_ITERATIONS {
        let r = sim
            .try_run(iters, None)
            .map_err(|f| format!("{label}: simulator rejects the mapping: {f}"))?;
        if r.cycles != m.cycles_for(iters)
            || r.ii != u64::from(m.ii)
            || r.schedule_len != u64::from(m.schedule_len)
        {
            return Err(format!(
                "{label} at {iters} iterations: simulated (cycles {}, II {}, prologue {}) != \
                 analytical ({}, {}, {})",
                r.cycles,
                r.ii,
                r.schedule_len,
                m.cycles_for(iters),
                m.ii,
                m.schedule_len
            ));
        }
    }
    Ok(())
}

/// Lower → Place → Route → Fold, one public call at a time and serially,
/// selecting each loop's unroll factor exactly as the compile service does
/// (earliest factor with the strictly lowest per-element II).
fn replay(ctx: &mut Ctx) -> Result<(), String> {
    let configs = configs(ctx.seed);
    ctx.setup_done();
    let mut text = String::new();
    for cfg in &configs {
        let engine = PicachuEngine::new(cfg.clone());
        let spec = engine.spec().clone();
        let mask = ResourceMask::full(&spec);
        let vf = cfg.format.vector_factor();
        for op in NonlinearOp::ALL {
            let kernel = kernel_for(op, cfg.taylor_terms);
            for (i, kl) in kernel.loops.iter().enumerate() {
                let mut best: Option<(usize, Dfg, Mapping)> = None;
                for &uf in &cfg.unroll_candidates {
                    let dfg = ctx.tracer.span("lower", |t| {
                        let d = engine.lowered_dfg(op, i, uf, vf);
                        t.count("dfg_nodes", d.len() as f64);
                        d
                    });
                    let seed = engine.loop_seed(i);
                    let Some(m) = ctx
                        .tracer
                        .span("place", |t| place_serially(t, &dfg, &spec, &mask, seed))
                    else {
                        continue;
                    };
                    let per_elem = f64::from(m.ii) / (uf * vf) as f64;
                    let better = best
                        .as_ref()
                        .is_none_or(|(buf, _, b)| per_elem < f64::from(b.ii) / (buf * vf) as f64);
                    if better {
                        best = Some((uf, dfg, m));
                    }
                }
                let (uf, dfg, m) =
                    best.ok_or_else(|| format!("{}: no unroll factor maps", kl.label))?;
                let routes = ctx.tracer.span("route", |t| {
                    let r = route_mapping(&dfg, &spec, &mask, m.ii, &m.placements);
                    if let Some(r) = &r {
                        t.count("overused_slots", r.overused_channel_slots as f64);
                    }
                    r
                });
                routes.ok_or_else(|| format!("{}: replayed mapping does not route", kl.label))?;
                let report = ctx.tracer.span("fold", |t| {
                    let r = pnr_report(&dfg, &spec, &mask, &m);
                    if let Some(r) = &r {
                        t.count("folded_hops", r.folded_hops as f64);
                    }
                    r
                });
                report.ok_or_else(|| format!("{}: replayed mapping does not report", kl.label))?;
                render(&mut text, &spec, op, &kl.label, uf, vf, &m);
            }
        }
    }
    ctx.report.text("digest", &digest(&text));
    Ok(())
}

/// The portfolio search of one `(loop, unroll)` candidate, cell by cell in
/// index order up to the first success — the cells the parallel pass must
/// also evaluate before it can accept that success.
fn place_serially(
    t: &mut Tracer,
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    seed: u64,
) -> Option<Mapping> {
    let grid = SearchGrid::prepare(dfg, spec, mask, seed, None).ok()?;
    let mut found = None;
    for idx in 0..grid.grid_len() {
        t.count("cells", 1.0);
        if let Some(hit) = grid.eval(dfg, spec, mask, idx) {
            t.count("accepted", 1.0);
            found = Some((idx, hit));
            break;
        }
    }
    grid.resolve(dfg, spec, mask, found).ok()
}
