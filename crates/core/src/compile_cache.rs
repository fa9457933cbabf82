//! The compile cache: a memo of compiled kernels, owned by the engines that
//! share it.
//!
//! Modulo-scheduling a kernel loop is by far the most expensive step of the
//! toolchain, and the compilation of a kernel is a pure function of the
//! knobs in [`CompileKey`]. A [`CompileCache`] holds the `Arc`ed loops per
//! key, its own hit/miss counters and an optional
//! [`mapstore`](crate::mapstore) directory that persists entries across
//! processes. No cache is process-global: `PicachuEngine::new` builds a
//! private one, `PicachuEngine::with_cache` shares an `Arc` (as
//! [`crate::dse::search`] does across one search's design points), and what
//! an engine compiles or installs is visible only through its handle.
//!
//! The cache is a memo and nothing more: compilation is deterministic in the
//! key, so a hit returns bit-identical loops to a fresh compile, and no
//! output — a mapping, a degradation-ladder rung, an II inflation or a cost
//! estimate — depends on whether a key is present.

use crate::engine::CompiledLoop;
use picachu_nonlinear::NonlinearOp;
use picachu_num::DataFormat;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

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
    /// re-map. Part of the key so the two never alias: the degradation
    /// ladder may compute both for one fault set (the full re-map when
    /// repair fails), and the cache — and the on-disk store shared across
    /// processes — must stay a pure function of the key.
    pub incremental: bool,
}

/// A compiled-kernel memo with its own counters and an optional on-disk
/// store. Shared across threads (and engines) behind an `Arc`.
#[derive(Debug, Default)]
pub struct CompileCache {
    entries: RwLock<HashMap<CompileKey, Arc<Vec<CompiledLoop>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    store: Option<PathBuf>,
}

impl CompileCache {
    /// An empty cache without a mapping store.
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// An empty cache backed by the mapping store in `dir`: a memory miss
    /// reads the key's validated store file, and every fresh compile is
    /// written there, so a repeat process (or another device pointed at the
    /// same directory) warms from disk.
    pub fn with_store(dir: impl Into<PathBuf>) -> CompileCache {
        CompileCache { store: Some(dir.into()), ..CompileCache::default() }
    }

    /// Looks up a compiled kernel, counting a hit or miss.
    ///
    /// On a memory miss with a store configured, the key's own store file
    /// is read and validated; an accepted entry is inserted and counts as a
    /// hit. A missing or rejected file counts as a miss.
    pub fn lookup(&self, key: &CompileKey) -> Option<Arc<Vec<CompiledLoop>>> {
        // the read guard must drop before a store load takes the write lock;
        // a poisoned lock still holds a valid map (see `insert`)
        let cached = self.entries.read().unwrap_or_else(|p| p.into_inner()).get(key).cloned();
        let hit = cached.or_else(|| {
            let loops = crate::mapstore::load(self.store.as_deref()?, key)?;
            Some(self.insert(key, loops).0)
        });
        let counter = if hit.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Inserts unless the key is present; returns the canonical entry and
    /// whether it was freshly inserted. A panic while holding the lock can
    /// only happen between whole reads/inserts of immutable `Arc`ed entries,
    /// so a poisoned lock still guards a valid map, and compilation must not
    /// stop because one worker died (the runtime reports the panic).
    fn insert(&self, key: &CompileKey, loops: Vec<CompiledLoop>) -> (Arc<Vec<CompiledLoop>>, bool) {
        let mut map = self.entries.write().unwrap_or_else(|p| p.into_inner());
        if let Some(existing) = map.get(key) {
            return (existing.clone(), false);
        }
        let arc = Arc::new(loops);
        map.insert(key.clone(), arc.clone());
        (arc, true)
    }

    /// Publishes a compiled kernel. Returns the canonical entry: if another
    /// thread published the same key first, its (bit-identical, by
    /// determinism) value wins and the duplicate work is dropped. A
    /// genuinely fresh entry is also written to the store when one is
    /// configured (entries loaded *from* the store bypass this, so they are
    /// never echoed back to disk).
    pub(crate) fn publish(
        &self,
        key: CompileKey,
        loops: Vec<CompiledLoop>,
    ) -> Arc<Vec<CompiledLoop>> {
        let (arc, fresh) = self.insert(&key, loops);
        if let (true, Some(dir)) = (fresh, &self.store) {
            crate::mapstore::save(dir, &key, &arc);
        }
        arc
    }

    /// The entry for `key`: a hit when cached (or in the store), otherwise
    /// `compile()`'s loops, published. A failed compile publishes nothing.
    ///
    /// # Errors
    /// Whatever `compile` returns.
    pub(crate) fn get_or_compile<E>(
        &self,
        key: CompileKey,
        compile: impl FnOnce() -> Result<Vec<CompiledLoop>, E>,
    ) -> Result<Arc<Vec<CompiledLoop>>, E> {
        match self.lookup(&key) {
            Some(hit) => Ok(hit),
            None => Ok(self.publish(key, compile()?)),
        }
    }

    /// `(hits, misses)` of this cache's lookups.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, PicachuEngine};

    #[test]
    fn engines_share_compilations() {
        let cache = Arc::new(CompileCache::new());
        let cfg = EngineConfig::default();
        let mut a = PicachuEngine::with_cache(cfg.clone(), cache.clone());
        let first = a.compile_op(NonlinearOp::Silu).to_vec();
        assert_eq!(cache.stats(), (0, 1), "first compile must miss");
        // a brand-new engine on the same handle hits
        let mut b = PicachuEngine::with_cache(cfg.clone(), cache.clone());
        assert_eq!(b.compile_op(NonlinearOp::Silu), &first[..]);
        assert_eq!(cache.stats(), (1, 1));
        // an engine with a private cache compiles on its own
        let mut c = PicachuEngine::new(cfg);
        assert_eq!(c.compile_op(NonlinearOp::Silu), &first[..]);
        assert_eq!(c.compile_cache().stats(), (0, 1));
        assert_eq!(cache.stats(), (1, 1), "a private cache never touches the shared one");
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("picachu-mapstore-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A default-geometry engine compiling ReLU into a store-backed cache.
    fn relu_into(cache: &Arc<CompileCache>) -> (CompileKey, Vec<CompiledLoop>) {
        let mut engine = PicachuEngine::with_cache(EngineConfig::default(), cache.clone());
        (engine.compile_key(NonlinearOp::Relu), engine.compile_op(NonlinearOp::Relu).to_vec())
    }

    #[test]
    fn lookup_falls_back_to_the_mapstore() {
        let dir = temp_store("lookup");
        let (key, cold) = relu_into(&Arc::new(CompileCache::with_store(&dir)));
        let warm = CompileCache::with_store(&dir);
        assert_eq!(warm.lookup(&key).as_deref(), Some(&cold), "the store must serve the entry");
        assert_eq!(warm.stats(), (1, 0));
        // an entry the store rejects is a miss, never served
        let path = crate::mapstore::entry_path(&dir, &key);
        let text = std::fs::read_to_string(&path).expect("store file");
        std::fs::write(&path, text.replacen("place,0,", "place,99,", 1)).expect("tamper");
        let tampered = CompileCache::with_store(&dir);
        assert!(tampered.lookup(&key).is_none(), "tampered entry served");
        assert_eq!(tampered.stats(), (0, 1));
        // a cache without a store never reads the directory
        assert!(CompileCache::new().lookup(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_appends_fresh_entries_once() {
        let dir = temp_store("publish");
        let cache = Arc::new(CompileCache::with_store(&dir));
        let (key, loops) = relu_into(&cache);
        let path = crate::mapstore::entry_path(&dir, &key);
        let text = std::fs::read_to_string(&path).expect("fresh publish writes the store");
        assert_eq!(Ok(text), crate::mapstore::bitstream::export_bitstream(&key, &loops));
        // republishing the occupied key must not write the store again
        std::fs::remove_file(&path).expect("remove entry");
        cache.publish(key, loops);
        assert!(!path.exists(), "an occupied key was written twice");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_compile_publishes_nothing() {
        let cache = CompileCache::new();
        let key = PicachuEngine::new(EngineConfig::default()).compile_key(NonlinearOp::Relu);
        assert_eq!(cache.get_or_compile(key.clone(), || Err("no mapping")), Err("no mapping"));
        assert!(cache.lookup(&key).is_none(), "a failed compile was published");
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn different_geometry_is_a_different_key() {
        let cache = Arc::new(CompileCache::new());
        PicachuEngine::with_cache(EngineConfig::default(), cache.clone())
            .compile_op(NonlinearOp::Relu);
        let five = EngineConfig { cgra_rows: 5, cgra_cols: 5, ..EngineConfig::default() };
        PicachuEngine::with_cache(five, cache.clone()).compile_op(NonlinearOp::Relu);
        assert_eq!(cache.stats(), (0, 2), "5x5 fabric must not reuse the 4x4 entry");
    }
}
