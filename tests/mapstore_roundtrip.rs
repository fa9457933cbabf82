//! Mapping-store round trips. The store persists each compile-cache entry
//! as its versioned bitstream, so both tests here exercise one format:
//!
//! * a cache built with a store directory leaves one `.bitstream` file per
//!   key, and a "repeat process" (a fresh cache on the same directory)
//!   warms every kernel from disk with zero mapper invocations and a
//!   bit-identical [`ExecutionReport`](picachu::ExecutionReport); a tampered
//!   store file is never served — its key compiles cold once and the file
//!   is rewritten;
//! * at 16×16 (the annealed Place→Route→Fold pipeline), exported bitstreams
//!   installed into a fresh cache serve the same trace with zero mapper
//!   invocations;
//! * an installed bitstream is served only by engines on the cache it was
//!   installed into.
//!
//! Every engine here counts its own cold compiles on its own
//! [`CompileCache`] handle, so the tests share no state.

use picachu::engine::{EngineConfig, PicachuEngine};
use picachu::mapstore::bitstream::{export_bitstream, import_bitstream, install_bitstream};
use picachu::mapstore::entry_path;
use picachu::{Accelerator, CompileCache};
use picachu_llm::trace::model_trace;
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;
use std::sync::Arc;

/// `text` with the tile of its first `place` row moved to the next tile.
fn shift_first_placement(text: &str, tiles: usize) -> String {
    let mut done = false;
    text.lines()
        .map(|l| {
            let mut row = l.to_string();
            if !done && l.starts_with("place,") {
                done = true;
                let mut f: Vec<String> = l.split(',').map(str::to_string).collect();
                let tile: usize = f[2].parse().expect("tile field");
                f[2] = ((tile + 1) % tiles).to_string();
                row = f.join(",");
            }
            row + "\n"
        })
        .collect()
}

#[test]
fn warm_from_store_run_is_bit_identical_and_mapper_free() {
    let dir = std::env::temp_dir()
        .join(format!("picachu-mapstore-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let on_store = |cfg: &EngineConfig| {
        PicachuEngine::with_cache(cfg.clone(), Arc::new(CompileCache::with_store(&dir)))
    };

    let cfg = EngineConfig::default();
    let trace = model_trace(&ModelConfig::gpt2(), 64);
    let mut cold_engine = on_store(&cfg);
    // the trait method returns the full ExecutionReport (the inherent
    // method on the engine returns only the Breakdown)
    let cold = Accelerator::execute_trace(&mut cold_engine, &trace);
    let (cold_hits, cold_misses) = cold_engine.compile_cache().stats();
    assert_eq!(cold_hits, 0, "an empty store serves nothing");
    assert!(cold_misses > 0, "first run must actually compile cold");

    // one versioned bitstream file per compiled key
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("store directory written")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert!(!files.is_empty(), "cold compiles must be persisted");
    for f in &files {
        assert_eq!(f.extension().and_then(|e| e.to_str()), Some("bitstream"), "{f:?}");
        let text = std::fs::read_to_string(f).expect("store file");
        assert!(text.starts_with("picachu-bitstream,1\n"), "{f:?} lacks the version header");
    }

    // a repeat process: empty in-memory cache, same store directory
    let mut warm_engine = on_store(&cfg);
    let warm = Accelerator::execute_trace(&mut warm_engine, &trace);
    let (warm_hits, warm_misses) = warm_engine.compile_cache().stats();
    assert_eq!(warm_hits, cold_misses, "repeat run must warm every key from the store");
    assert_eq!(warm_misses, 0, "store-warmed run must never re-run the mapper");
    assert_eq!(cold, warm, "warm-from-store report diverged from the cold one");

    // tamper with one entry: it must be rejected, compiled cold exactly
    // once, and rewritten valid by the fresh publish
    let key = warm_engine.compile_key(NonlinearOp::Softmax);
    let path = entry_path(&dir, &key);
    let good = std::fs::read_to_string(&path).expect("softmax entry persisted");
    let tiles = cfg.cgra_rows * cfg.cgra_cols;
    std::fs::write(&path, shift_first_placement(&good, tiles)).expect("tamper");
    let mut healed_engine = on_store(&cfg);
    let healed = Accelerator::execute_trace(&mut healed_engine, &trace);
    let (_, healed_misses) = healed_engine.compile_cache().stats();
    assert_eq!(healed_misses, 1, "only the tampered key may compile cold");
    assert_eq!(cold, healed, "a tampered store entry changed the report");
    let rewritten = std::fs::read_to_string(&path).expect("entry rewritten");
    assert_eq!(rewritten, good, "the fresh publish must rewrite the entry");
    assert_eq!(import_bitstream(&rewritten).map(|(k, _)| k), Ok(key));

    let _ = std::fs::remove_dir_all(&dir);
}

fn config_16x16() -> EngineConfig {
    EngineConfig {
        cgra_rows: 16,
        cgra_cols: 16,
        // two unroll candidates keep the annealed cold compile quick while
        // still exercising a non-trivial portfolio
        unroll_candidates: vec![1, 2],
        ..EngineConfig::default()
    }
}

#[test]
fn bitstream_reload_is_bit_identical_and_mapper_free() {
    let cfg = config_16x16();
    let trace = model_trace(&ModelConfig::gpt2(), 32);

    let mut cold_engine = PicachuEngine::new(cfg.clone());
    let cold = Accelerator::execute_trace(&mut cold_engine, &trace);
    let (_, cold_misses) = cold_engine.compile_cache().stats();
    assert!(cold_misses > 0, "first run must actually compile cold");

    // export every op the trace compiled (16×16 > the anneal threshold, so
    // these mappings came from the staged pipeline)
    let mut bitstreams = Vec::new();
    for op in NonlinearOp::ALL {
        let key = cold_engine.compile_key(op);
        if let Some(loops) = cold_engine.compile_cache().lookup(&key) {
            let text = export_bitstream(&key, &loops)
                .unwrap_or_else(|e| panic!("{op:?}: export failed: {e}"));
            assert!(text.starts_with("picachu-bitstream,1\n"), "versioned header");
            assert!(text.contains("\nroute,"), "{op:?}: bitstream must carry routes");
            bitstreams.push(text);
        }
    }
    assert!(!bitstreams.is_empty(), "the trace must have compiled something");

    // a fresh process: empty cache, bitstreams installed, no mapstore
    let cache = Arc::new(CompileCache::new());
    for text in &bitstreams {
        install_bitstream(&cache, text).expect("exported bitstream must install");
    }
    let mut warm_engine = PicachuEngine::with_cache(cfg, cache.clone());
    let warm = Accelerator::execute_trace(&mut warm_engine, &trace);
    let (warm_hits, warm_misses) = cache.stats();
    assert_eq!(warm_hits as usize, bitstreams.len(), "every op served from its bitstream");
    assert_eq!(warm_misses, 0, "bitstream-warmed run must never invoke the mapper");
    assert_eq!(cold, warm, "bitstream-reloaded report diverged from the cold one");
}

#[test]
fn installed_bitstream_is_served_only_from_its_cache() {
    // seed-1 Softmax loops exported under the seed-2 key: a legal bitstream
    // (import checks the loops against the kernel, not against the seed's
    // own search), so it installs
    let seeded = |seed| EngineConfig { seed, ..EngineConfig::default() };
    let op = NonlinearOp::Softmax;
    let seed1 = PicachuEngine::new(seeded(1)).compile_op(op).to_vec();
    let key2 = PicachuEngine::new(seeded(2)).compile_key(op);
    let text = export_bitstream(&key2, &seed1).expect("export");
    let cache = Arc::new(CompileCache::new());
    assert_eq!(install_bitstream(&cache, &text), Ok(key2));

    // an engine on that cache serves the installed loops
    let mut served = PicachuEngine::with_cache(seeded(2), cache.clone());
    assert_eq!(served.compile_op(op), &seed1[..]);
    assert_eq!(cache.stats(), (1, 0));

    // a fresh seed-2 engine compiles its own, different loops
    let mut fresh = PicachuEngine::new(seeded(2));
    let own = fresh.compile_op(op).to_vec();
    assert_eq!(fresh.compile_cache().stats(), (0, 1), "a fresh engine must compile cold");
    assert_ne!(own, seed1, "a fresh seed-2 engine served another cache's install");
    assert_eq!(cache.stats(), (1, 0), "the fresh engine never read the other cache");
}
