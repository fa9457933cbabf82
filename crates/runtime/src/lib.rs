//! # picachu-runtime
//!
//! A zero-dependency parallel runtime for the PICACHU toolchain, built on
//! `std::thread::scope` and atomics. It exists because CGRA mapping time is
//! the dominant wall-clock cost of every experiment binary (the modulo
//! scheduler runs tens of randomized placement attempts per candidate II),
//! and both the DSE sweep and the figure harnesses evaluate many independent
//! design points / kernels.
//!
//! Three primitives cover every call site, and all of them run on one work
//! loop, the one in [`try_parallel_find_first_grouped`]:
//!
//! * [`parallel_map`] / [`try_parallel_map`] — chunk-free dynamic work
//!   sharing over an indexed item slice, in a panicking and a fallible
//!   flavour (one single-cell group per item); results come back in input
//!   order, so callers observe exactly the serial output regardless of
//!   thread count.
//! * [`try_parallel_find_first`] — a deterministic *portfolio* search: run
//!   fallible tasks `0..n` concurrently and return the success with the
//!   **lowest index**. Workers claim indices in ascending order and skip any
//!   index above the best success found so far, so the result is
//!   bit-identical to a serial first-success scan while failures (the
//!   expensive part of a modulo-scheduling search) burn in parallel.
//! * [`try_parallel_find_first_grouped`] — many portfolio searches sharing
//!   **one flat work queue**: the compile service submits every
//!   `(op × II × attempt)` cell of a batch compile as a single pass, so the
//!   cells of all kernels fan out together instead of the outer map
//!   serialising the inner portfolios through the nested-pool guard. Each
//!   group independently resolves to its lowest-index success, and a group's
//!   remaining cells are killed (skipped at claim time) as soon as a
//!   lower-index success for that group lands.
//!
//! ## Panic isolation
//!
//! Every closure invocation is wrapped in `catch_unwind`: a panicking task
//! poisons only its own slot, never the pool. The `try_*` primitives report
//! the poisoned slot as a typed [`WorkerPanic`] whose `index` is exactly the
//! index at which a serial scan would have panicked (the lowest panicking
//! index not preceded by a success, for the portfolio search) — the error is
//! as deterministic as the results. [`parallel_map`] re-raises the
//! `WorkerPanic` as a panic for callers that treat a task panic as a bug.
//!
//! ## Thread-count policy
//!
//! The pool size is resolved per call, on the calling thread, as the first
//! of:
//!
//! 1. the calling thread's override ([`set_thread_override`] — used by the
//!    determinism tests and the serial-vs-parallel benches);
//! 2. the `PICACHU_THREADS` environment variable (parsed once per process);
//! 3. [`std::thread::available_parallelism`].
//!
//! The override is per thread: it sizes only the pools that the thread which
//! set it starts, so tests running concurrently cannot change each other's
//! pool width. Only the calling thread's value can matter, because nested
//! calls never oversubscribe: a `parallel_*` call made from inside a pool
//! worker runs serially on that worker (the outer call already owns the
//! machine). Because every primitive is deterministic, the thread count —
//! and therefore nesting depth — can never change any result, only timing.

// Serve-path crate: a panic here kills a compile request, so unwrap/expect
// are banned outside test code (DESIGN.md §7).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// `PICACHU_THREADS`, parsed **once per process** (0 = unset).
///
/// The value is memoized in a `OnceLock` on the first `parallel_*` call:
/// setting or changing the variable later in the same process is silently
/// ignored by design (re-reading the environment mid-run would let the pool
/// size — and therefore wall-clock, though never results — drift between
/// two halves of one experiment). In-process code that needs to vary the
/// thread count uses [`set_thread_override`], which takes precedence over
/// the environment on the thread that sets it and is what the determinism
/// tests and the serial-vs-parallel benches drive.
///
/// An invalid value (non-numeric, negative, or `0` — zero worker threads is
/// not a meaningful pool) is *warned about once* and treated as unset, so a
/// typo degrades to hardware parallelism instead of being silently absorbed.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("PICACHU_THREADS") {
        Err(_) => 0,
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!(
                    "picachu-runtime: invalid PICACHU_THREADS={s:?} (expected a positive \
                     integer); falling back to hardware parallelism"
                );
                0
            }
        },
    })
}

thread_local! {
    /// This thread's programmatic override; 0 = no override.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True inside a pool worker: nested parallel calls degrade to serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Forces every subsequent `parallel_*` call **made from the calling
/// thread** to use exactly `n` threads (`None` restores the env/hardware
/// policy). Other threads keep their own setting. Intended for determinism
/// tests and serial-vs-parallel benchmarking; results never depend on this
/// — only wall-clock does.
pub fn set_thread_override(n: Option<usize>) {
    OVERRIDE.with(|o| o.set(n.unwrap_or(0)));
}

/// The number of worker threads a `parallel_*` call issued right now from
/// this thread would use (this thread's override → `PICACHU_THREADS` →
/// hardware parallelism, min 1).
pub fn num_threads() -> usize {
    let o = OVERRIDE.with(|o| o.get());
    if o > 0 {
        return o;
    }
    let e = env_threads();
    if e > 0 {
        return e;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Whether the current thread is already a pool worker.
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// A task closure panicked inside a `parallel_*` primitive.
///
/// `index` identifies the poisoned slot deterministically: it is the index
/// at which the equivalent serial scan would have panicked, regardless of
/// thread count or scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The task index whose closure panicked.
    pub index: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Stringifies a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Recovers a mutex guard even if another task panicked while holding it —
/// all guarded state here is slot writes that remain internally consistent.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Applies `f` to every item, in parallel, returning results in input order.
///
/// `f` receives `(index, &item)`. This is [`try_parallel_find_first_grouped`]
/// with one single-cell group per item, so work is shared dynamically (an
/// atomic next-index counter) and heavy-tailed workloads — one design point
/// mapping far slower than the rest — still balance. With one thread, one
/// item, or when called from inside another pool, this is a plain serial
/// loop.
///
/// A panicking task poisons only its own slot ([`WorkerPanic`]); the
/// reported index is the lowest panicking one, where a serial loop would
/// have panicked. On the parallel path items past it may still run.
///
/// # Errors
/// Returns [`WorkerPanic`] if any task closure panicked.
pub fn try_parallel_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let found =
        try_parallel_find_first_grouped(&vec![1; items.len()], |g, _| Some(f(g, &items[g])))?;
    // every single-cell group succeeds unless it panicked, which returned above
    Ok(found.into_iter().flatten().map(|(_, r)| r).collect())
}

/// [`try_parallel_map`] for callers that treat a task panic as a bug.
///
/// # Panics
/// Re-raises a [`WorkerPanic`] from any task closure.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_parallel_map(items, f) {
        Ok(v) => v,
        Err(wp) => panic!("{wp}"),
    }
}

/// Runs fallible tasks `0..n` concurrently and returns `(index, result)` for
/// the success with the **lowest index**, or `Ok(None)` if every task fails.
///
/// Determinism contract: the outcome is identical to a serial
/// `(0..n).find_map(f)` in which a panicking `f(i)` aborts the scan — the
/// lowest *eventful* index wins. If that index is a success the result is
/// `Ok(Some((index, r)))`; if it is a panic the result is
/// `Err(WorkerPanic { index, .. })`. Workers claim indices in ascending
/// order; once a success or panic at index `b` is recorded, indices above
/// `b` are skipped, while indices below `b` — all claimed before `b` was —
/// still run to completion and may lower the winner.
///
/// This is exactly [`try_parallel_find_first_grouped`] with a single group;
/// see there for the memory-ordering contract.
///
/// # Errors
/// Returns [`WorkerPanic`] when the lowest eventful index panicked.
pub fn try_parallel_find_first<R, F>(n: usize, f: F) -> Result<Option<(usize, R)>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> Option<R> + Sync,
{
    let mut per_group = try_parallel_find_first_grouped(&[n], |_, i| f(i))?;
    Ok(per_group.pop().flatten())
}

/// Many deterministic portfolio searches sharing **one flat work queue**.
///
/// `group_sizes[g]` is the number of cells of group `g`; `f(g, i)` evaluates
/// cell `i` (`0 <= i < group_sizes[g]`) of that group. Every group resolves
/// independently to the contract of [`try_parallel_find_first`]: its
/// lowest-index success (or `None` when every cell fails). The return vector
/// has one entry per group, in group order.
///
/// The point of the shared queue is the **nested-pool serialization bug**:
/// an outer `try_parallel_map` over kernels whose tasks each run an inner
/// portfolio search leaves every inner search on the serial nested path
/// ([`in_worker`]), so the expensive part — the modulo-scheduling grid —
/// never parallelizes. Flattening all groups into one queue gives the pool
/// the whole `(group × cell)` grid at once: workers claim cells in ascending
/// flat order (group 0's cells first, then group 1's, …), and once a success
/// at cell `b` of group `g` lands, the remaining cells of `g` are
/// *early-killed* — skipped at claim time, their cost reduced to one atomic
/// claim — while work continues on later groups.
///
/// Determinism contract: identical to running the groups one after another,
/// each through a serial `find_first` scan. Per group the lowest *eventful*
/// cell wins; if for some group that cell is a panic, the call returns
/// [`WorkerPanic`] for the **lowest such group**, with `index` equal to the
/// flat queue index (`offset(g) + i`) — the cell a serial group-by-group
/// scan would have panicked at. Zero-size groups resolve to `None`.
///
/// ## Memory-ordering contract
///
/// Three kinds of shared state, with deliberately different strengths:
///
/// * The claim counter `next` uses `Relaxed` `fetch_add`: the only property
///   used is the atomicity of the RMW itself (every flat index is claimed
///   exactly once). No other memory access is ordered against a claim, so
///   no stronger ordering is needed.
/// * Per-group `best`/`first_panic` cutoffs are written with `SeqCst` and
///   read *advisorily* at claim time: a stale read can only cause a cell to
///   run that would have been skipped (wasted work, then discarded by the
///   reduction below), never a wrong result. The authoritative
///   compare-and-update (`load` + `store`) happens **under the group's
///   result mutex**, so writers are mutually excluded and the stored value
///   is the true minimum of all eventful cells; `SeqCst` on the store is
///   then only needed to make the final non-mutex reads after
///   `thread::scope` well-defined (scope join already provides the
///   happens-before edge, so this is belt and braces, kept because the
///   cutoff traffic is nowhere near hot enough to measure).
/// * Results and panic payloads travel through `Mutex`es, never atomics.
///
/// Correctness therefore never depends on cutoff visibility — only
/// wall-clock does. The `grouped_stress_lowest_index_wins_under_contention`
/// test hammers this with 16 threads racing dense success patterns.
///
/// # Errors
/// Returns [`WorkerPanic`] when some group's lowest eventful cell panicked
/// (lowest such group wins).
pub fn try_parallel_find_first_grouped<R, F>(
    group_sizes: &[usize],
    f: F,
) -> Result<Vec<Option<(usize, R)>>, WorkerPanic>
where
    R: Send,
    F: Fn(usize, usize) -> Option<R> + Sync,
{
    let groups = group_sizes.len();
    let mut offsets = Vec::with_capacity(groups + 1);
    let mut total = 0usize;
    offsets.push(0);
    for &sz in group_sizes {
        total += sz;
        offsets.push(total);
    }
    let threads = num_threads().min(total);
    if threads <= 1 || in_worker() {
        let mut out = Vec::with_capacity(groups);
        for (g, &sz) in group_sizes.iter().enumerate() {
            let mut found = None;
            for i in 0..sz {
                match catch_unwind(AssertUnwindSafe(|| f(g, i))) {
                    Ok(Some(r)) => {
                        found = Some((i, r));
                        break;
                    }
                    Ok(None) => {}
                    Err(p) => {
                        return Err(WorkerPanic {
                            index: offsets[g] + i,
                            message: panic_message(p),
                        })
                    }
                }
            }
            out.push(found);
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let best: Vec<AtomicUsize> = (0..groups).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let first_panic: Vec<AtomicUsize> =
        (0..groups).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let winners: Vec<Mutex<Option<(usize, R)>>> = (0..groups).map(|_| Mutex::new(None)).collect();
    let panics: Vec<Mutex<Option<WorkerPanic>>> = (0..groups).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let flat = next.fetch_add(1, Ordering::Relaxed);
                    if flat >= total {
                        break;
                    }
                    // the group owning this flat index (offsets is strictly
                    // increasing over non-empty groups, so the cell lands in
                    // the last group whose offset is <= flat)
                    let g = offsets.partition_point(|&o| o <= flat) - 1;
                    let i = flat - offsets[g];
                    let cutoff = best[g]
                        .load(Ordering::SeqCst)
                        .min(first_panic[g].load(Ordering::SeqCst));
                    if i > cutoff {
                        // early-kill: this group already resolved at a lower
                        // cell; move on to the next group's cells.
                        continue;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(g, i))) {
                        Ok(Some(r)) => {
                            let mut w = lock_unpoisoned(&winners[g]);
                            if i < best[g].load(Ordering::SeqCst) {
                                best[g].store(i, Ordering::SeqCst);
                                *w = Some((i, r));
                            }
                        }
                        Ok(None) => {}
                        Err(p) => {
                            let mut w = lock_unpoisoned(&panics[g]);
                            if i < first_panic[g].load(Ordering::SeqCst) {
                                first_panic[g].store(i, Ordering::SeqCst);
                                *w = Some(WorkerPanic {
                                    index: offsets[g] + i,
                                    message: panic_message(p),
                                });
                            }
                        }
                    }
                }
            });
        }
    });
    let mut out = Vec::with_capacity(groups);
    for g in 0..groups {
        let b = best[g].load(Ordering::SeqCst);
        let p = first_panic[g].load(Ordering::SeqCst);
        if p < b {
            // a serial group-by-group scan would have panicked inside this
            // group before reaching its first success: the panic is the
            // deterministic outcome.
            if let Some(wp) = lock_unpoisoned(&panics[g]).take() {
                return Err(wp);
            }
        }
        out.push(lock_unpoisoned(&winners[g]).take());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let run = |threads: usize| {
            set_thread_override(Some(threads));
            let r = parallel_map(&items, |_, &x| x.wrapping_mul(0x9E3779B9).rotate_left(7));
            set_thread_override(None);
            r
        };
        let serial = run(1);
        for t in [2, 3, 8] {
            assert_eq!(run(t), serial, "{t} threads");
        }
    }

    #[test]
    fn find_first_returns_lowest_success() {
        // successes at 7, 13, 40: the winner must always be 7
        for t in [1usize, 2, 4, 8] {
            set_thread_override(Some(t));
            let got = try_parallel_find_first(64, |i| {
                if i == 7 || i == 13 || i == 40 {
                    Some(i * 10)
                } else {
                    None
                }
            });
            set_thread_override(None);
            assert_eq!(got, Ok(Some((7, 70))), "{t} threads");
        }
    }

    #[test]
    fn find_first_none_when_all_fail() {
        assert_eq!(try_parallel_find_first(32, |_| None::<u32>), Ok(None));
        assert_eq!(try_parallel_find_first(0, |_| Some(1u32)), Ok(None));
    }

    #[test]
    fn nested_calls_run_serially() {
        set_thread_override(Some(4));
        let items: Vec<usize> = (0..8).collect();
        let out = parallel_map(&items, |_, &x| {
            assert!(in_worker() || num_threads() == 1);
            let inner: Vec<usize> = (0..4).collect();
            parallel_map(&inner, |_, &y| x * 10 + y).iter().sum::<usize>()
        });
        set_thread_override(None);
        let expect: Vec<usize> = (0..8).map(|x| (0..4).map(|y| x * 10 + y).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn override_wins_over_env() {
        set_thread_override(Some(3));
        assert_eq!(num_threads(), 3);
        set_thread_override(None);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn override_is_per_thread() {
        let base = num_threads();
        set_thread_override(Some(base + 5));
        let other = std::thread::spawn(num_threads).join().expect("probe thread");
        assert_eq!(num_threads(), base + 5);
        set_thread_override(None);
        assert_eq!(other, base, "another thread's override leaked");
    }

    #[test]
    fn map_empty_and_single() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[41u8], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panic_propagates() {
        set_thread_override(Some(2));
        let r = std::panic::catch_unwind(|| {
            parallel_map(&[1, 2, 3, 4], |_, &x| {
                if x == 3 {
                    panic!("boom");
                }
                x
            })
        });
        set_thread_override(None);
        assert!(r.is_err());
    }

    #[test]
    fn try_map_reports_lowest_panicking_index() {
        for t in [1usize, 2, 4, 8] {
            set_thread_override(Some(t));
            let items: Vec<u32> = (0..64).collect();
            let r = try_parallel_map(&items, |_, &x| {
                if x == 9 || x == 30 {
                    panic!("item {x} is poison");
                }
                x * 2
            });
            set_thread_override(None);
            let err = r.expect_err("a panicking item must surface as Err");
            assert_eq!(err.index, 9, "{t} threads");
            assert_eq!(err.message, "item 9 is poison");
        }
    }

    #[test]
    fn try_map_ok_path_matches_map() {
        let items: Vec<u64> = (0..100).collect();
        let a = try_parallel_map(&items, |_, &x| x + 1).expect("no panics");
        assert_eq!(a, parallel_map(&items, |_, &x| x + 1));
    }

    #[test]
    fn try_find_first_success_below_panic_wins() {
        for t in [1usize, 2, 4, 8] {
            set_thread_override(Some(t));
            let r = try_parallel_find_first(64, |i| {
                if i == 20 {
                    panic!("late poison");
                }
                (i == 5).then_some(i)
            });
            set_thread_override(None);
            assert_eq!(r, Ok(Some((5, 5))), "{t} threads");
        }
    }

    #[test]
    fn try_find_first_panic_below_success_is_err() {
        for t in [1usize, 2, 4, 8] {
            set_thread_override(Some(t));
            let r = try_parallel_find_first(64, |i| {
                if i == 5 {
                    panic!("early poison");
                }
                (i == 20).then_some(i)
            });
            set_thread_override(None);
            let err = r.expect_err("panic precedes the success in serial order");
            assert_eq!(err.index, 5, "{t} threads");
        }
    }

    #[test]
    fn try_find_first_all_fail_is_ok_none() {
        assert_eq!(try_parallel_find_first(32, |_| None::<u32>), Ok(None));
    }

    #[test]
    fn grouped_returns_lowest_success_per_group() {
        // group 0: successes at 7 and 13; group 1: none; group 2: at 0;
        // group 3: empty
        for t in [1usize, 2, 4, 8] {
            set_thread_override(Some(t));
            let got = try_parallel_find_first_grouped(&[64, 16, 8, 0], |g, i| match g {
                0 => (i == 7 || i == 13).then_some(g * 100 + i),
                2 => (i == 0).then_some(g * 100 + i),
                _ => None,
            });
            set_thread_override(None);
            let got = got.expect("no panics");
            assert_eq!(got[0], Some((7, 7)), "{t} threads");
            assert_eq!(got[1], None, "{t} threads");
            assert_eq!(got[2], Some((0, 200)), "{t} threads");
            assert_eq!(got[3], None, "{t} threads");
        }
    }

    #[test]
    fn grouped_matches_independent_searches_at_any_thread_count() {
        // a dense pseudo-random success pattern over 20 uneven groups: the
        // grouped pass must agree with 20 serial find_first scans
        let sizes: Vec<usize> = (0..20).map(|g| 3 + (g * 7) % 40).collect();
        let hit = |g: usize, i: usize| {
            (g as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .is_multiple_of(5)
        };
        let expect: Vec<Option<(usize, usize)>> = sizes
            .iter()
            .enumerate()
            .map(|(g, &sz)| (0..sz).find(|&i| hit(g, i)).map(|i| (i, g * 1000 + i)))
            .collect();
        for t in [1usize, 2, 3, 8] {
            set_thread_override(Some(t));
            let got =
                try_parallel_find_first_grouped(&sizes, |g, i| hit(g, i).then_some(g * 1000 + i));
            set_thread_override(None);
            assert_eq!(got, Ok(expect.clone()), "{t} threads");
        }
    }

    #[test]
    fn grouped_panic_reports_lowest_group_flat_index() {
        // group 1 panics at cell 2 before its first success at cell 9;
        // group 0 resolves cleanly — the Err must point at group 1, and the
        // reported index is flat (offset 10 + 2).
        for t in [1usize, 2, 8] {
            set_thread_override(Some(t));
            let r = try_parallel_find_first_grouped(&[10, 10], |g, i| {
                if g == 1 && i == 2 {
                    panic!("cell poison");
                }
                (g == 0 && i == 3 || g == 1 && i == 9).then_some(i)
            });
            set_thread_override(None);
            let err = r.expect_err("panic precedes group 1's success");
            assert_eq!(err.index, 12, "{t} threads");
        }
    }

    #[test]
    fn grouped_success_below_panic_is_ok() {
        for t in [1usize, 4] {
            set_thread_override(Some(t));
            let r = try_parallel_find_first_grouped(&[32], |_, i| {
                if i == 20 {
                    panic!("beyond the winner");
                }
                (i == 4).then_some(i)
            });
            set_thread_override(None);
            assert_eq!(r, Ok(vec![Some((4, 4))]), "{t} threads");
        }
    }

    #[test]
    fn grouped_empty_inputs() {
        assert_eq!(try_parallel_find_first_grouped::<u32, _>(&[], |_, _| None), Ok(vec![]));
        assert_eq!(
            try_parallel_find_first_grouped(&[0, 0], |_, _| Some(1u32)),
            Ok(vec![None, None])
        );
    }

    #[test]
    fn grouped_runs_serially_inside_a_worker() {
        set_thread_override(Some(4));
        let out = parallel_map(&[10usize, 20], |_, &base| {
            // nested grouped call: must degrade to the serial path, not
            // deadlock or oversubscribe — and still be exact
            let r = try_parallel_find_first_grouped(&[8, 8], |g, i| {
                (i == g + 1).then_some(base + g * 10 + i)
            });
            r.expect("no panics")
        });
        set_thread_override(None);
        assert_eq!(out[0], vec![Some((1, 11)), Some((2, 22))]);
        assert_eq!(out[1], vec![Some((1, 21)), Some((2, 32))]);
    }

    /// Satellite audit: the Relaxed claim counter and SeqCst cutoffs must
    /// still yield lowest-index-wins under heavy contention. 16 threads race
    /// over groups whose success cells sit immediately next to each other,
    /// so the advisory cutoff read is stale as often as possible.
    #[test]
    fn grouped_stress_lowest_index_wins_under_contention() {
        set_thread_override(Some(16));
        for round in 0..25u64 {
            // successes at `w`, `w+1`, `w+2` for a round-dependent winner w
            let sizes = [512usize, 512, 512];
            let got = try_parallel_find_first_grouped(&sizes, |g, i| {
                let w = ((round.wrapping_mul(97) + g as u64 * 31) % 500) as usize;
                (i >= w && i <= w + 2).then_some(i)
            })
            .expect("no panics");
            for (g, r) in got.iter().enumerate() {
                let w = ((round.wrapping_mul(97) + g as u64 * 31) % 500) as usize;
                assert_eq!(*r, Some((w, w)), "round {round} group {g}");
            }
        }
        set_thread_override(None);
    }

    #[test]
    fn pool_survives_panicking_batch() {
        // After a poisoned batch, the pool primitives must still work — no
        // global state is left behind by a worker panic.
        set_thread_override(Some(4));
        let _ = try_parallel_map(&[1u8, 2, 3], |_, _| panic!("all poison"));
        let ok = try_parallel_map(&[1u8, 2, 3], |_, &x| x * 2);
        set_thread_override(None);
        assert_eq!(ok, Ok(vec![2, 4, 6]));
    }
}
