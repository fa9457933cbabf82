//! Tiny wall-clock microbenchmark harness (the in-tree `criterion`
//! replacement for `crates/bench`).
//!
//! Design goals, in order: **zero dependencies**, **machine-readable
//! output**, **fast smoke mode**. Each benchmark is warmed up, then timed
//! over `sample_size` samples of `iters_per_sample` calls each; the
//! per-call median and p95 are emitted as one JSON line on stdout so
//! `BENCH_*.json` trajectories can be accumulated with a plain
//! `cargo bench -p picachu-bench > file`:
//!
//! ```json
//! {"group":"compiler","bench":"fuse_softmax2","median_ns":1234.5,"p95_ns":1401.2,"samples":31,"iters_per_sample":64}
//! ```
//!
//! `--smoke` (as in `cargo bench -p picachu-bench -- --smoke`) runs every
//! benchmark exactly once with no warmup — a CI-friendly "does every bench
//! still execute" gate. Any other non-flag argument is a substring filter on
//! `group/bench` names. The `--bench` flag cargo appends is ignored.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] so benches need no direct `std::hint`
/// import (mirrors `criterion::black_box`).
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Top-level harness; parses CLI arguments once and owns global options.
pub struct Bench {
    smoke: bool,
    filter: Option<String>,
}

impl Bench {
    /// Builds the harness from `std::env::args`.
    ///
    /// Recognised arguments: `--smoke` (single-iteration mode), `--bench`
    /// (ignored; cargo appends it), and a free-form substring filter.
    pub fn from_args() -> Bench {
        let mut smoke = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--bench" | "--test" => {}
                s if s.starts_with("--") => {}
                s => filter = Some(s.to_string()),
            }
        }
        Bench { smoke, filter }
    }

    /// Explicit constructor for tests and scripted use.
    pub fn new(smoke: bool, filter: Option<String>) -> Bench {
        Bench { smoke, filter }
    }

    /// Whether `--smoke` was requested.
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// Opens a named benchmark group (mirrors criterion's `benchmark_group`).
    pub fn group(&self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            sample_size: 31,
            meta: Vec::new(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct Group<'a> {
    harness: &'a Bench,
    name: String,
    sample_size: usize,
    /// Extra integer fields appended to every row, in insertion order.
    meta: Vec<(String, u64)>,
}

/// One benchmark's summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Median per-call wall-clock nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-call wall-clock nanoseconds.
    pub p95_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Calls per timed sample.
    pub iters_per_sample: u64,
}

impl<'a> Group<'a> {
    /// Sets the number of timed samples for subsequent benches in this group
    /// (mirrors criterion's `sample_size`; smoke mode overrides it to 1).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets an integer field (e.g. `threads`, `cores`) that every
    /// subsequent row of this group carries; setting it again overwrites the
    /// value.
    pub fn meta(&mut self, key: &str, value: u64) -> &mut Self {
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.meta.push((key.to_string(), value)),
        }
        self
    }

    /// Runs one benchmark and prints its JSON line. Returns the stats (also
    /// used by the self-tests); skipped benches return `None`.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) -> Option<Stats> {
        let full = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.harness.filter {
            if !full.contains(filter.as_str()) {
                return None;
            }
        }
        let stats = if self.harness.smoke {
            // one call, no warmup: proves the bench still runs
            let t0 = Instant::now();
            f();
            let ns = t0.elapsed().as_nanos() as f64;
            Stats { median_ns: ns, p95_ns: ns, samples: 1, iters_per_sample: 1 }
        } else {
            run_measured(&mut f, self.sample_size)
        };
        let meta: String = self
            .meta
            .iter()
            .map(|(k, v)| format!(",\"{}\":{v}", json_escape(k)))
            .collect();
        println!(
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{:.1},\"p95_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}{meta}}}",
            json_escape(&self.name),
            json_escape(name),
            stats.median_ns,
            stats.p95_ns,
            stats.samples,
            stats.iters_per_sample
        );
        Some(stats)
    }

    /// Criterion-compat shim: `bench_with_input(id, input, f)` where the id
    /// is already rendered into the bench name by the caller.
    pub fn finish(&mut self) {}
}

/// Warmup + calibration + timed samples.
fn run_measured<F: FnMut()>(f: &mut F, sample_size: usize) -> Stats {
    // Warmup & calibration: run until ~20ms total or 10k calls, tracking the
    // mean so we can size each timed sample at ~1ms (min 1 call).
    let warm_budget = Duration::from_millis(20);
    let warm_start = Instant::now();
    let mut calls = 0u64;
    while warm_start.elapsed() < warm_budget && calls < 10_000 {
        f();
        calls += 1;
    }
    let mean_ns = warm_start.elapsed().as_nanos() as f64 / calls as f64;
    let iters_per_sample = ((1_000_000.0 / mean_ns.max(1.0)).ceil() as u64).clamp(1, 100_000);

    let mut per_call: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let t0 = Instant::now();
        for _ in 0..iters_per_sample {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / iters_per_sample as f64);
    }
    per_call.sort_by(f64::total_cmp);
    Stats {
        median_ns: percentile(&per_call, 50.0),
        p95_ns: percentile(&per_call, 95.0),
        samples: sample_size,
        iters_per_sample,
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_exactly_once() {
        let h = Bench::new(true, None);
        let mut g = h.group("test");
        let mut count = 0u32;
        let stats = g.bench("counter", || count += 1).expect("not filtered");
        assert_eq!(count, 1);
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.iters_per_sample, 1);
    }

    #[test]
    fn meta_fields_overwrite_in_place() {
        let h = Bench::new(true, None);
        let mut g = h.group("test");
        g.meta("threads", 1).meta("cores", 2).meta("threads", 4);
        assert_eq!(g.meta, [("threads".to_string(), 4), ("cores".to_string(), 2)]);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let h = Bench::new(true, Some("wanted".into()));
        let mut g = h.group("grp");
        let mut ran = false;
        assert!(g.bench("other", || ran = true).is_none());
        assert!(!ran);
        assert!(g.bench("wanted_bench", || ran = true).is_some());
        assert!(ran);
    }

    #[test]
    fn measured_stats_are_sane() {
        let h = Bench::new(false, None);
        let mut g = h.group("test");
        g.sample_size(5);
        let stats = g
            .bench("spin", || {
                black_box((0..100u64).sum::<u64>());
            })
            .expect("not filtered");
        assert!(stats.median_ns > 0.0);
        assert!(stats.p95_ns >= stats.median_ns);
        assert_eq!(stats.samples, 5);
        assert!(stats.iters_per_sample >= 1);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 95.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
