//! Process-wide compiled-mapping cache.
//!
//! Modulo-scheduling a kernel loop is by far the most expensive step of the
//! toolchain (randomized placement restarts across a window of candidate
//! IIs), and the compilation of a kernel is a pure function of the knobs in
//! [`CompileKey`]. Historically every [`PicachuEngine`](crate::PicachuEngine)
//! owned a private cache, so a DSE sweep or a figure harness that builds one
//! engine per design point re-mapped identical `(op, fabric, format)` kernels
//! from scratch at every point. This module hoists the cache to the process:
//! a `RwLock<HashMap>` shared by every engine (and every worker thread of the
//! parallel runtime), with hit/miss counters for the benches.
//!
//! The cache is semantically invisible: compilation is deterministic in the
//! key, so a hit returns bit-identical loops to a fresh compile. Entries are
//! `Arc`ed, so a hit is one map lookup plus a refcount bump.

use crate::engine::CompiledLoop;
use picachu_nonlinear::NonlinearOp;
use picachu_num::DataFormat;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Everything the compiled loops of one nonlinear op depend on. The Shared
/// Buffer size is deliberately absent: mapping happens on the CGRA fabric
/// and never sees the buffer, which is what lets DSE points that differ only
/// in `buffer_kb` share compilations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileKey {
    /// The nonlinear operation.
    pub op: NonlinearOp,
    /// CGRA fabric rows (geometry plus the `universal` flag fully
    /// determine the fabric the engine builds).
    pub cgra_rows: usize,
    /// CGRA fabric columns.
    pub cgra_cols: usize,
    /// Kernel data format (drives the vector factor).
    pub format: DataFormat,
    /// Taylor terms of the exp/sin kernels.
    pub taylor_terms: usize,
    /// The unroll factors the compiler tries.
    pub unroll_candidates: Vec<usize>,
    /// Mapper seed.
    pub seed: u64,
    /// Dead PEs the mapping routes around (empty for a healthy fabric). The
    /// exact fault set is part of the key: a mapping compiled around tile 3
    /// is not valid — and not bit-identical — for any other fault set.
    pub dead_tiles: Vec<usize>,
    /// Dead NoC links the mapping routes around (normalized `(min, max)`
    /// pairs, empty for a healthy fabric).
    pub dead_links: Vec<(usize, usize)>,
    /// `true` when compiled for the all-universal fabric — either the
    /// degradation ladder's fallback rung, or an engine whose
    /// `FabricKind::Universal` config builds that fabric outright. A
    /// universal mapping must never alias a heterogeneous one at the same
    /// geometry.
    pub universal: bool,
    /// `true` when the mapping was produced by incremental repair of the
    /// healthy mapping (retained II, re-placed sub-DFG) rather than a full
    /// re-map. Part of the key so the two never alias: which one a process
    /// computes depends on its history (repair needs a healthy mapping on
    /// hand), and the cache — and the on-disk store shared across processes
    /// — must stay a pure function of the key.
    pub incremental: bool,
}

type Cache = RwLock<HashMap<CompileKey, Arc<Vec<CompiledLoop>>>>;

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Recovers the map from a poisoned lock. A panic while holding the cache
/// lock can only happen between pure reads/inserts of immutable `Arc`ed
/// entries — the map itself is never left half-mutated — so the cache stays
/// valid and the whole process must not lose compilation because one worker
/// died (the panic is reported through the runtime's typed path).
fn read_cache() -> std::sync::RwLockReadGuard<'static, HashMap<CompileKey, Arc<Vec<CompiledLoop>>>> {
    cache().read().unwrap_or_else(|p| p.into_inner())
}

fn write_cache() -> std::sync::RwLockWriteGuard<'static, HashMap<CompileKey, Arc<Vec<CompiledLoop>>>> {
    cache().write().unwrap_or_else(|p| p.into_inner())
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Looks up a compiled kernel, counting a hit or miss.
///
/// On a memory miss with the [`mapstore`](crate::mapstore) enabled, the
/// key's own store file is read and validated; an accepted entry is
/// published to the cache and counts as a hit, so a repeat process (or a
/// serving-fleet node sharing a store directory) warms from disk instead of
/// re-running the mapper. A missing or rejected file counts as a miss.
pub fn lookup(key: &CompileKey) -> Option<Arc<Vec<CompiledLoop>>> {
    let hit = read_cache().get(key).cloned();
    let hit = hit.or_else(|| crate::mapstore::load(key).map(|loops| insert(key, loops).0));
    let counter = if hit.is_some() { &HITS } else { &MISSES };
    counter.fetch_add(1, Ordering::Relaxed);
    hit
}

/// Inserts unless the key is present; returns the canonical entry and
/// whether it was freshly inserted.
fn insert(key: &CompileKey, loops: Vec<CompiledLoop>) -> (Arc<Vec<CompiledLoop>>, bool) {
    let mut map = write_cache();
    if let Some(existing) = map.get(key) {
        return (existing.clone(), false);
    }
    let arc = Arc::new(loops);
    map.insert(key.clone(), arc.clone());
    (arc, true)
}

/// Publishes a compiled kernel. Returns the canonical entry: if another
/// thread published the same key first, its (bit-identical, by determinism)
/// value wins and the duplicate work is dropped. A genuinely fresh entry is
/// also written to the on-disk [`mapstore`](crate::mapstore) when one is
/// configured (entries loaded *from* the store bypass this, so they are
/// never echoed back to disk).
pub fn publish(key: CompileKey, loops: Vec<CompiledLoop>) -> Arc<Vec<CompiledLoop>> {
    let (arc, fresh) = insert(&key, loops);
    if fresh {
        crate::mapstore::save(&key, &arc);
    }
    arc
}

/// Number of cached kernels.
pub fn len() -> usize {
    read_cache().len()
}

/// Drops every entry and zeroes the counters (benches use this to measure
/// cold compiles; engines re-populate lazily). With a mapping store
/// enabled, later misses read it again, so cold benches run with the store
/// disabled (the default).
pub fn clear() {
    write_cache().clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// `(hits, misses)` since the last [`clear`].
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, PicachuEngine};
    use std::sync::Mutex;

    /// The cache is process-global and these tests clear it; serialize them
    /// so they cannot wipe each other's entries mid-assertion.
    fn clear_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn engines_share_compilations() {
        let _g = clear_lock();
        clear();
        let cfg = EngineConfig::default();
        let mut a = PicachuEngine::new(cfg.clone());
        a.compile_op(NonlinearOp::Silu);
        let after_first = stats();
        assert!(after_first.1 >= 1, "first compile must miss");
        // a brand-new engine with the same knobs hits the shared cache
        let mut b = PicachuEngine::new(cfg);
        let loops = b.compile_op(NonlinearOp::Silu).to_vec();
        let (hits, _) = stats();
        assert!(hits >= 1, "second engine should hit the process cache");
        assert_eq!(loops.len(), a.compile_op(NonlinearOp::Silu).len());
    }

    /// A default-geometry engine under a seed no other test uses, so
    /// concurrently-running engine tests never touch its ReLU entry.
    fn store_test_engine(seed: u64) -> PicachuEngine {
        PicachuEngine::new(EngineConfig { seed, ..EngineConfig::default() })
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("picachu-mapstore-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lookup_falls_back_to_the_mapstore() {
        let _g = clear_lock();
        clear();
        let dir = temp_store("lookup");
        crate::mapstore::set_mapstore_dir(Some(dir.clone()));
        let mut engine = store_test_engine(0xFEED_0001);
        let key = engine.compile_key(NonlinearOp::Relu);
        let cold = engine.compile_op(NonlinearOp::Relu).to_vec();
        clear();
        let warm = lookup(&key).expect("store-backed hit");
        assert_eq!(*warm, cold, "the store must serve the published entry");
        // an entry the store rejects is a miss, never served
        let path = crate::mapstore::entry_path(&dir, &key);
        let text = std::fs::read_to_string(&path).expect("store file");
        std::fs::write(&path, text.replacen("place,0,", "place,99,", 1)).expect("tamper");
        clear();
        assert!(lookup(&key).is_none(), "tampered entry served");
        crate::mapstore::set_mapstore_dir(None);
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_appends_fresh_entries_once() {
        let _g = clear_lock();
        clear();
        let dir = temp_store("publish");
        crate::mapstore::set_mapstore_dir(Some(dir.clone()));
        let mut engine = store_test_engine(0xFEED_0002);
        let key = engine.compile_key(NonlinearOp::Relu);
        let loops = engine.compile_op(NonlinearOp::Relu).to_vec();
        let path = crate::mapstore::entry_path(&dir, &key);
        let text = std::fs::read_to_string(&path).expect("fresh publish writes the store");
        assert_eq!(Ok(text), crate::mapstore::bitstream::export_bitstream(&key, &loops));
        // republishing the occupied key must not write the store again
        std::fs::remove_file(&path).expect("remove entry");
        publish(key.clone(), loops);
        assert!(!path.exists(), "an occupied key was written twice");
        crate::mapstore::set_mapstore_dir(None);
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_geometry_is_a_different_key() {
        let _g = clear_lock();
        clear();
        let mut a = PicachuEngine::new(EngineConfig::default());
        a.compile_op(NonlinearOp::Relu);
        let n1 = len();
        let mut b = PicachuEngine::new(EngineConfig {
            cgra_rows: 5,
            cgra_cols: 5,
            ..EngineConfig::default()
        });
        b.compile_op(NonlinearOp::Relu);
        assert!(len() > n1, "5x5 fabric must not reuse the 4x4 entry");
    }
}
