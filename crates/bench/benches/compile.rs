//! Parallel-compilation microbench: serial vs parallel (and cold vs warm
//! shared-cache) wall-clock for the toolchain's dominant cost — modulo-
//! scheduling the kernel library and running a DSE mini-search.
//!
//! Emits one JSON line per bench (median/p95) on the `picachu-testkit`
//! harness; `scripts/verify.sh` redirects a full run to
//! `results/BENCH_compile.json` so serial-vs-parallel trajectories are
//! recorded per commit. The thread counts are pinned through the runtime
//! override (serial = 1 thread, parallel = the machine's `PICACHU_THREADS` /
//! hardware parallelism), and the shared compile cache is cleared inside
//! every cold iteration so the mapper actually runs. Every row records the
//! `threads` it ran at and the `cores` the machine offers, so a parallel
//! timing taken with more threads than cores is visible in the artifact.

use picachu::compile_cache;
use picachu::dse::{search, SearchConfig};
use picachu::engine::{EngineConfig, PicachuEngine};
use picachu::runtime;
use picachu_compiler::mapper::{map_dfg_with, repair_mapping, ResourceMask};
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;
use picachu_testkit::{black_box, Bench};

/// Compiles the full Table 1 kernel library on a fresh engine.
fn compile_library() {
    let mut e = PicachuEngine::new(EngineConfig::default());
    for op in NonlinearOp::ALL {
        black_box(e.compile_op(op).len());
    }
}

fn small_search() -> SearchConfig {
    SearchConfig::smoke(42)
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
        compile_cache::clear();
        compile_library();
        runtime::set_thread_override(None);
    });
    g.meta("threads", pool);
    g.bench("kernel_library_cold_parallel", || {
        compile_cache::clear();
        compile_library();
    });
    // repeated compile_op: a fresh engine against the warm process-wide
    // cache — the DSE / figure-harness steady state.
    g.bench("kernel_library_warm_cache", || {
        compile_library();
    });

    g.meta("threads", 1);
    g.bench("dse_search_cold_serial", || {
        runtime::set_thread_override(Some(1));
        compile_cache::clear();
        black_box(search(&ModelConfig::gpt2(), &small_search()).evaluated.len());
        runtime::set_thread_override(None);
    });
    g.meta("threads", pool);
    g.bench("dse_search_cold_parallel", || {
        compile_cache::clear();
        black_box(search(&ModelConfig::gpt2(), &small_search()).evaluated.len());
    });
    g.bench("dse_search_warm_cache", || {
        black_box(search(&ModelConfig::gpt2(), &small_search()).evaluated.len());
    });

    // a repeat process's cold start when `PICACHU_MAPSTORE` points at a
    // populated store: every clear() re-arms the store load, so the closure
    // measures deserialize-from-disk instead of the mapper
    let store = std::env::temp_dir()
        .join(format!("picachu-bench-mapstore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    picachu::set_mapstore_dir(Some(store.clone()));
    compile_cache::clear();
    compile_library(); // populate the store once
    g.bench("kernel_library_warm_from_store", || {
        compile_cache::clear();
        compile_library();
    });
    picachu::set_mapstore_dir(None);
    compile_cache::clear();
    let _ = std::fs::remove_dir_all(&store);

    // incremental repair vs full re-map after a dead tile, at the mapper
    // layer (pure functions, no cache): the repair retains the healthy II
    // and re-places only the disturbed sub-DFG
    let engine = PicachuEngine::new(EngineConfig::default());
    let mut warm = PicachuEngine::new(EngineConfig::default());
    let healthy = warm.compile_op(NonlinearOp::Softmax).to_vec();
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
