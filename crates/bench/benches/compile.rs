//! Parallel-compilation microbench: serial vs parallel (and cold vs warm
//! compile-cache) wall-clock for the toolchain's dominant cost — modulo-
//! scheduling the kernel library and running a DSE mini-search — plus the
//! annealed placer on a 16×16 fabric and incremental repair against a full
//! re-map after a dead tile.
//!
//! Emits one JSON line per bench (median/p95) on the `picachu-testkit`
//! harness; `scripts/verify.sh` redirects a full run to
//! `results/BENCH_compile.json` so serial-vs-parallel trajectories are
//! recorded per commit. The thread counts are pinned through the runtime
//! override (serial = 1 thread, parallel = the machine's `PICACHU_THREADS` /
//! hardware parallelism). Every cold iteration compiles into a fresh
//! [`CompileCache`], so the mapper actually runs. Every row records the
//! `threads` it ran at and the `cores` the machine offers, so a parallel
//! timing taken with more threads than cores is visible in the artifact.

use picachu::dse::{search, SearchConfig};
use picachu::engine::{EngineConfig, PicachuEngine};
use picachu::runtime;
use picachu::CompileCache;
use picachu_compiler::mapper::{map_dfg_with, repair_mapping, ResourceMask};
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;
use picachu_testkit::{black_box, Bench};
use std::sync::Arc;

/// Compiles the full Table 1 kernel library on a fresh engine built on
/// `cache`.
fn compile_library(cache: Arc<CompileCache>) {
    let mut e = PicachuEngine::with_cache(EngineConfig::default(), cache);
    for op in NonlinearOp::ALL {
        black_box(e.compile_op(op).len());
    }
}

fn small_search() {
    black_box(search(&ModelConfig::gpt2(), &SearchConfig::smoke(42)).evaluated.len());
}

fn main() {
    let h = Bench::from_args();
    let mut g = h.group("compile");
    g.sample_size(5);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = runtime::num_threads() as u64;
    g.meta("threads", 1).meta("cores", cores as u64);

    g.bench("kernel_library_cold_serial", || {
        runtime::set_thread_override(Some(1));
        compile_library(Arc::new(CompileCache::new()));
        runtime::set_thread_override(None);
    });
    g.meta("threads", pool);
    g.bench("kernel_library_cold_parallel", || compile_library(Arc::new(CompileCache::new())));
    // above the annealing threshold: every cell anneals, schedules and
    // routes (unroll portfolio [1, 2], as the oracle's 16×16 runs)
    let annealed = EngineConfig {
        cgra_rows: 16,
        cgra_cols: 16,
        unroll_candidates: vec![1, 2],
        ..EngineConfig::default()
    };
    g.bench("kernel_library_cold_annealed_16x16", || {
        let mut e = PicachuEngine::new(annealed.clone());
        black_box(e.prewarm(&NonlinearOp::ALL).is_ok());
    });
    // a fresh engine on a warm shared cache — the DSE / figure-harness
    // steady state
    let warm = Arc::new(CompileCache::new());
    compile_library(warm.clone()); // populate the cache once
    g.bench("kernel_library_warm_cache", || compile_library(warm.clone()));

    g.meta("threads", 1);
    g.bench("dse_search_cold_serial", || {
        runtime::set_thread_override(Some(1));
        small_search();
        runtime::set_thread_override(None);
    });
    g.meta("threads", pool);
    g.bench("dse_search_cold_parallel", small_search);

    // a repeat process's cold start on a populated mapping store: every
    // lookup of a fresh store-backed cache reads and validates its key's
    // bitstream file, so the closure measures the validated import (Route
    // pass replay included) instead of the mapper
    let store = std::env::temp_dir()
        .join(format!("picachu-bench-mapstore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    compile_library(Arc::new(CompileCache::with_store(&store))); // populate the store once
    g.bench("kernel_library_warm_from_store", || {
        compile_library(Arc::new(CompileCache::with_store(&store)));
    });
    let _ = std::fs::remove_dir_all(&store);
    g.finish();

    // incremental repair vs full re-map after a dead tile, at the mapper
    // layer (pure functions, no cache): the repair retains the healthy II
    // and re-places only the disturbed sub-DFG
    let mut engine = PicachuEngine::new(EngineConfig::default());
    let healthy = engine.compile_op(NonlinearOp::Softmax).to_vec();
    let cases: Vec<_> = healthy
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let dfg = engine.lowered_dfg(NonlinearOp::Softmax, i, l.uf, l.vf);
            let dead = l.mapping.placements[0].tile;
            let mask = ResourceMask::degraded(engine.spec(), [dead], []);
            (dfg, engine.loop_seed(i), mask, l.mapping.clone())
        })
        .collect();
    // about a millisecond per call: 30 samples keep one scheduling hiccup
    // in the p95 instead of the median the repair-vs-remap decision reads
    let mut g = h.group("repair");
    g.sample_size(30).meta("threads", pool).meta("cores", cores as u64);
    g.bench("softmax_incremental_repair", || {
        for (dfg, seed, mask, base) in &cases {
            black_box(repair_mapping(dfg, engine.spec(), *seed, mask, base).is_some());
        }
    });
    g.bench("softmax_full_remap_degraded", || {
        for (dfg, seed, mask, _) in &cases {
            black_box(map_dfg_with(dfg, engine.spec(), *seed, mask, None).is_ok());
        }
    });
    g.finish();
}
