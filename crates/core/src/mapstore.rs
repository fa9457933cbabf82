//! On-disk mapping store: cross-process persistence for a
//! [`CompileCache`](crate::compile_cache::CompileCache).
//!
//! Modulo-scheduling is a pure function of [`CompileKey`], so a mapping
//! computed once is valid for every process that shares the key — a repeat
//! bench run, a restarted server, or a whole serving fleet pointed at one
//! shared directory. The store is the directory a cache is built with
//! ([`CompileCache::with_store`](crate::compile_cache::CompileCache::with_store));
//! a cache built with `CompileCache::new` has none, so cold compiles
//! measure real mapper work unless a caller opts in.
//!
//! Each entry is one file, `<fnv1a64(key row):016x>.bitstream`, holding the
//! entry's [`bitstream`] export: the interchange format is the persisted
//! format. A writer renders the file to a per-process temp file and renames
//! it into place, so readers see a whole file or none, and concurrent
//! writers of one key (bit-identical by determinism) simply replace each
//! other. A reader loads only the requested key's file and serves it only
//! if its key row matches and [`bitstream::import_bitstream`] accepts it. A
//! missing, colliding or rejected file is a miss: the caller compiles cold
//! and its publish overwrites the bad file. Nothing is synced to disk: the
//! store is a cache, and an entry a crash damages is rejected on load and
//! compiled again.

pub mod bitstream;

use crate::compile_cache::CompileKey;
use crate::engine::CompiledLoop;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// 64-bit FNV-1a: a file name that stays the same across builds and
/// platforms, unlike `DefaultHasher`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The file holding `key`'s entry in the store directory `dir`.
pub fn entry_path(dir: &Path, key: &CompileKey) -> PathBuf {
    let row = bitstream::key_row(key);
    dir.join(format!("{:016x}.bitstream", fnv1a64(row.as_bytes())))
}

/// `key`'s entry from the store in `dir`, validated; `None` when the store
/// holds no acceptable entry for the key. Problems other than a missing
/// file are warnings; every one of them is a miss.
pub(crate) fn load(dir: &Path, key: &CompileKey) -> Option<Vec<CompiledLoop>> {
    let path = entry_path(dir, key);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!("picachu-mapstore: cannot read {}: {e}", path.display());
            return None;
        }
    };
    // compare the key row before parsing: a colliding file is never
    // imported, so its geometry and kernel are never built
    if text.lines().nth(1) != Some(bitstream::key_row(key).as_str()) {
        eprintln!("picachu-mapstore: {} holds another key; ignoring it", path.display());
        return None;
    }
    match bitstream::import_bitstream(&text) {
        Ok((_, loops)) => Some(loops),
        Err(e) => {
            eprintln!("picachu-mapstore: rejected {}: {e}", path.display());
            None
        }
    }
}

/// Persists `key`'s entry to the store in `dir`: write a temp file unique
/// to this process and call, then rename it over the entry. Failures are
/// warnings: the store is an accelerator, never a correctness dependency.
pub(crate) fn save(dir: &Path, key: &CompileKey, loops: &[CompiledLoop]) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let text = match bitstream::export_bitstream(key, loops) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("picachu-mapstore: cannot export {}: {e}", key.op.name());
            return;
        }
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("picachu-mapstore: cannot create {}: {e}", dir.display());
        return;
    }
    let path = entry_path(dir, key);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}.{seq}.tmp", std::process::id()));
    let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = written {
        eprintln!("picachu-mapstore: cannot write {}: {e}", path.display());
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, PicachuEngine};
    use picachu_nonlinear::NonlinearOp;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("picachu-mapstore-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A compiled ReLU entry.
    fn relu_entry() -> (CompileKey, Vec<CompiledLoop>) {
        let mut e = PicachuEngine::new(EngineConfig::default());
        (e.compile_key(NonlinearOp::Relu), e.compile_op(NonlinearOp::Relu).to_vec())
    }

    #[test]
    fn entry_round_trips_exactly() {
        let dir = temp_dir("roundtrip");
        let (key, loops) = relu_entry();
        assert_eq!(load(&dir, &key), None, "empty store");
        save(&dir, &key, &loops);
        let path = entry_path(&dir, &key);
        assert!(path.to_string_lossy().ends_with(".bitstream"));
        let text = std::fs::read_to_string(&path).expect("entry written");
        assert_eq!(Ok(text), bitstream::export_bitstream(&key, &loops), "the file is the export");
        assert_eq!(load(&dir, &key), Some(loops));
        let files = std::fs::read_dir(&dir).expect("store dir").count();
        assert_eq!(files, 1, "no temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_or_rejected_entry_is_a_miss() {
        let dir = temp_dir("reject");
        let (key, loops) = relu_entry();
        save(&dir, &key, &loops);
        // another key's file under this key's name
        let other = CompileKey { seed: key.seed + 1, ..key.clone() };
        std::fs::rename(entry_path(&dir, &key), entry_path(&dir, &other)).expect("rename");
        assert_eq!(load(&dir, &other), None, "colliding file");
        // a torn file
        save(&dir, &key, &loops);
        let path = entry_path(&dir, &key);
        let text = std::fs::read_to_string(&path).expect("entry");
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        assert_eq!(load(&dir, &key), None, "torn file");
        // the next save heals it
        save(&dir, &key, &loops);
        assert_eq!(load(&dir, &key), Some(loops));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
