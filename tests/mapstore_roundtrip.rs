//! Mapping-store round trips. The store persists each compile-cache entry
//! as its versioned bitstream, so both tests here exercise one format:
//!
//! * a process that compiled cold with a store directory configured leaves
//!   one `.bitstream` file per key, and a "repeat process" (modelled by
//!   clearing the process-wide compile cache) warms every kernel from disk
//!   with zero mapper invocations and a bit-identical
//!   [`ExecutionReport`](picachu::ExecutionReport); a tampered store file is
//!   never served — its key compiles cold once and the file is rewritten;
//! * at 16×16 (the annealed Place→Route→Fold pipeline), exported bitstreams
//!   installed into a fresh cache serve the same trace with zero mapper
//!   invocations.
//!
//! Own integration-test binary (own process) because the compile cache, its
//! hit/miss counters and the store override are process-global; the two
//! tests take a lock so they cannot clear each other's state mid-run.

use picachu::engine::{EngineConfig, PicachuEngine};
use picachu::mapstore::bitstream::{export_bitstream, import_bitstream, install_bitstream};
use picachu::mapstore::entry_path;
use picachu::{compile_cache, set_mapstore_dir, Accelerator};
use picachu_llm::trace::model_trace;
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

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
    let _g = serial();
    let dir = std::env::temp_dir()
        .join(format!("picachu-mapstore-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    set_mapstore_dir(Some(dir.clone()));
    compile_cache::clear();

    let cfg = EngineConfig::default();
    let trace = model_trace(&ModelConfig::gpt2(), 64);
    let mut cold_engine = PicachuEngine::new(cfg.clone());
    // the trait method returns the full ExecutionReport (the inherent
    // method on the engine returns only the Breakdown)
    let cold = Accelerator::execute_trace(&mut cold_engine, &trace);
    let (_, cold_misses) = compile_cache::stats();
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
    compile_cache::clear();
    let mut warm_engine = PicachuEngine::new(cfg.clone());
    let warm = Accelerator::execute_trace(&mut warm_engine, &trace);
    let (warm_hits, warm_misses) = compile_cache::stats();
    assert!(warm_hits > 0, "repeat run must warm from the on-disk store");
    assert_eq!(warm_misses, 0, "store-warmed run must never re-run the mapper");
    assert_eq!(cold, warm, "warm-from-store report diverged from the cold one");

    // tamper with one entry: it must be rejected, compiled cold exactly
    // once, and rewritten valid by the fresh publish
    let key = warm_engine.compile_key(NonlinearOp::Softmax);
    let path = entry_path(&dir, &key);
    let good = std::fs::read_to_string(&path).expect("softmax entry persisted");
    let tiles = cfg.cgra_rows * cfg.cgra_cols;
    std::fs::write(&path, shift_first_placement(&good, tiles)).expect("tamper");
    compile_cache::clear();
    let mut healed_engine = PicachuEngine::new(cfg);
    let healed = Accelerator::execute_trace(&mut healed_engine, &trace);
    let (_, healed_misses) = compile_cache::stats();
    assert_eq!(healed_misses, 1, "only the tampered key may compile cold");
    assert_eq!(cold, healed, "a tampered store entry changed the report");
    let rewritten = std::fs::read_to_string(&path).expect("entry rewritten");
    assert_eq!(rewritten, good, "the fresh publish must rewrite the entry");
    assert_eq!(import_bitstream(&rewritten).map(|(k, _)| k), Ok(key));

    set_mapstore_dir(None);
    compile_cache::clear();
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
    let _g = serial();
    compile_cache::clear();
    let cfg = config_16x16();
    let trace = model_trace(&ModelConfig::gpt2(), 32);

    let mut cold_engine = PicachuEngine::new(cfg.clone());
    let cold = Accelerator::execute_trace(&mut cold_engine, &trace);
    let (_, cold_misses) = compile_cache::stats();
    assert!(cold_misses > 0, "first run must actually compile cold");

    // export every op the trace compiled (16×16 > the anneal threshold, so
    // these mappings came from the staged pipeline)
    let mut bitstreams = Vec::new();
    for op in NonlinearOp::ALL {
        let key = cold_engine.compile_key(op);
        if let Some(loops) = compile_cache::lookup(&key) {
            let text = export_bitstream(&key, &loops)
                .unwrap_or_else(|e| panic!("{op:?}: export failed: {e}"));
            assert!(text.starts_with("picachu-bitstream,1\n"), "versioned header");
            assert!(text.contains("\nroute,"), "{op:?}: bitstream must carry routes");
            bitstreams.push(text);
        }
    }
    assert!(!bitstreams.is_empty(), "the trace must have compiled something");

    // a fresh process: empty cache, bitstreams installed, no mapstore
    compile_cache::clear();
    for text in &bitstreams {
        install_bitstream(text).expect("exported bitstream must install");
    }
    let mut warm_engine = PicachuEngine::new(cfg);
    let warm = Accelerator::execute_trace(&mut warm_engine, &trace);
    let (warm_hits, warm_misses) = compile_cache::stats();
    assert!(warm_hits > 0, "reloaded run must serve from the installed bitstreams");
    assert_eq!(warm_misses, 0, "bitstream-warmed run must never invoke the mapper");
    assert_eq!(cold, warm, "bitstream-reloaded report diverged from the cold one");

    compile_cache::clear();
}
