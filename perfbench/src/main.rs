//! One repetition of one benchmark workload, in a fresh process.
//!
//! ```text
//! perfbench <compile-cold|dse-faults|serve-chaos> --seed <u64>
//!           --mode <plain|traced|replay> [--knobs <k1,k2,...>]
//! perfbench cores
//! ```
//!
//! * `plain` — set up, run the timed phase untraced, check the outputs.
//! * `traced` — the same work with spans around each top-level call; the
//!   difference to `plain` is the tracing overhead.
//! * `replay` — times each layer from outside by calling its public
//!   functions one by one on the workload's inputs (cold caches, because
//!   the process is fresh), and renders the replayed output in the same
//!   canonical form as the timed phase so the two can be compared.
//!
//! `perfbench cores` prints the number of cores this process may run on,
//! the same count every workload process reports as `cores`.
//!
//! The last stdout line is one JSON object; a failed output check exits
//! with status 3 before printing it. `perfbench/run.py` drives this binary.

mod compile_cold;
mod dse_faults;
mod serve_chaos;
mod trace;

use std::time::Instant;
use trace::{Report, Tracer};

/// Which pass of a repetition this process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Traced,
    Replay,
}

/// State shared by the workload modules for one process.
pub struct Ctx {
    pub origin: Instant,
    pub seed: u64,
    pub mode: Mode,
    pub knobs: Vec<String>,
    pub tracer: Tracer,
    pub report: Report,
}

impl Ctx {
    /// Marks the end of set-up: everything since `main` started.
    pub fn setup_done(&mut self) {
        let s = self.origin.elapsed().as_secs_f64();
        self.report.num("setup_s", s);
    }

    /// Records the timed phase and the memory high-water mark it reached.
    pub fn timed_done(&mut self, started: Instant) {
        self.report.num("timed_s", started.elapsed().as_secs_f64());
        self.report.num("peak_rss_mb", trace::peak_rss_mb());
    }
}

/// splitmix64 of `seed ^ salt`: each workload derives its own seed stream
/// from the one `--seed` argument.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cores this process may run on, with cgroup quotas applied.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench <compile-cold|dse-faults|serve-chaos> \
         --seed <u64> --mode <plain|traced|replay> [--knobs <list>]\n       perfbench cores"
    );
    std::process::exit(2)
}

fn main() {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = args.first().cloned() else {
        usage("missing workload")
    };
    if workload == "cores" && args.len() == 1 {
        println!("{}", cores());
        return;
    }
    let mut seed = None;
    let mut mode = None;
    let mut knobs = Vec::new();
    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seed" => seed = value.parse::<u64>().ok(),
            "--mode" => {
                mode = match value.as_str() {
                    "plain" => Some(Mode::Plain),
                    "traced" => Some(Mode::Traced),
                    "replay" => Some(Mode::Replay),
                    _ => usage(&format!("unknown mode {value}")),
                }
            }
            "--knobs" => {
                knobs = value
                    .split(',')
                    .filter(|k| !k.is_empty())
                    .map(String::from)
                    .collect()
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(seed) = seed else {
        usage("--seed must be a non-negative integer")
    };
    let Some(mode) = mode else {
        usage("missing --mode")
    };

    let mut ctx = Ctx {
        origin,
        seed,
        mode,
        knobs,
        tracer: Tracer::new(mode != Mode::Plain, origin),
        report: Report::default(),
    };
    ctx.report.text("workload", &workload);
    ctx.report
        .num("threads", picachu_runtime::num_threads() as f64);
    ctx.report.num("cores", cores() as f64);
    let outcome = match workload.as_str() {
        "compile-cold" => compile_cold::run(&mut ctx),
        "dse-faults" => dse_faults::run(&mut ctx),
        "serve-chaos" => serve_chaos::run(&mut ctx),
        _ => usage(&format!("unknown workload {workload}")),
    };
    match outcome {
        Ok(()) => println!("{}", ctx.report.line(&ctx.tracer)),
        Err(e) => {
            eprintln!("perfbench: {workload}: output check failed: {e}");
            std::process::exit(3);
        }
    }
}
