//! # picachu-bench — experiment harness
//!
//! One binary per paper table/figure (see DESIGN.md §3 for the index) plus
//! the in-tree microbenchmarks. This library is the **shared harness**: the
//! figure/table binaries build [`Workload`]s, drive every device through the
//! unified [`Accelerator`] backend contract with [`run_comparison`], and
//! emit their results as JSON-lines rows with [`emit`] — no binary carries
//! its own result-writing or accounting boilerplate.

use picachu_backend::Accelerator;
use picachu_llm::trace::TraceOp;
use picachu_llm::ModelConfig;
pub use picachu_testkit::json::{json_obj, Json};
use std::io::Write as _;
use std::path::PathBuf;

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("{}", "=".repeat(72));
    println!("{id} — {title}");
    println!("{}", "=".repeat(72));
}

/// Geometric mean of positive values.
///
/// # Panics
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean needs data");
    let s: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean needs positive values, got {x}");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// A named operator trace — the unit of comparison the harness feeds to
/// every backend identically.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Row label, e.g. `"llama2-7b@1024"` or `"gpt2/decode@512"`.
    pub name: String,
    /// The operator trace.
    pub trace: Vec<TraceOp>,
}

impl Workload {
    /// Full-model prefill at a sequence length.
    pub fn prefill(cfg: &ModelConfig, seq: usize) -> Workload {
        Workload {
            name: format!("{}@{seq}", cfg.name),
            trace: picachu_llm::model_trace(cfg, seq),
        }
    }

    /// One decode step (single token against a KV cache of `context` tokens).
    pub fn decode(cfg: &ModelConfig, context: usize) -> Workload {
        Workload {
            name: format!("{}/decode@{context}", cfg.name),
            trace: picachu_llm::trace::batched_decode_trace(cfg, context, 1),
        }
    }
}

/// One `(backend, workload)` result: the canonical per-phase breakdown plus
/// energy and silicon, as reported through the [`Accelerator`] contract.
/// Latency fields are in 1 GHz cycles ≡ ns (see `picachu-backend`'s unit
/// note), so rows from different backends are directly comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Backend name ([`Accelerator::name`]).
    pub backend: String,
    /// Workload name ([`Workload::name`]).
    pub workload: String,
    /// GEMM-phase latency.
    pub gemm: f64,
    /// Exposed nonlinear-phase latency.
    pub nonlinear: f64,
    /// Exposed data-movement latency.
    pub data_movement: f64,
    /// Fault-service overhead (0 on every healthy run).
    pub overhead: f64,
    /// Sum of the four phases.
    pub total: f64,
    /// Energy in nJ.
    pub energy_nj: f64,
    /// Backend silicon in mm².
    pub area_mm2: f64,
}

impl Row {
    /// The row as one JSON object (one line of a JSON-lines file).
    pub fn json(&self) -> String {
        json_obj(&[
            ("backend", Json::S(self.backend.clone())),
            ("workload", Json::S(self.workload.clone())),
            ("gemm", Json::F(self.gemm)),
            ("nonlinear", Json::F(self.nonlinear)),
            ("data_movement", Json::F(self.data_movement)),
            ("overhead", Json::F(self.overhead)),
            ("total", Json::F(self.total)),
            ("energy_nj", Json::F(self.energy_nj)),
            ("area_mm2", Json::F(self.area_mm2)),
        ])
    }
}

/// Runs every workload through every backend and collects the result rows,
/// workload-major (all backends on workload 0, then workload 1, …). This is
/// the single comparison path of the experiment binaries: a device appears
/// in a figure exactly as its [`Accelerator`] impl prices it.
pub fn run_comparison(backends: &mut [&mut dyn Accelerator], workloads: &[Workload]) -> Vec<Row> {
    let mut rows = Vec::with_capacity(backends.len() * workloads.len());
    for w in workloads {
        for b in backends.iter_mut() {
            let r = b.execute_trace(&w.trace);
            rows.push(Row {
                backend: r.backend.clone(),
                workload: w.name.clone(),
                gemm: r.breakdown.gemm,
                nonlinear: r.breakdown.nonlinear,
                data_movement: r.breakdown.data_movement,
                overhead: r.breakdown.overhead,
                total: r.total(),
                energy_nj: r.energy_nj,
                area_mm2: b.area_mm2(),
            });
        }
    }
    rows
}

/// Finds the row for `(backend, workload)` in a [`run_comparison`] result.
///
/// # Panics
/// Panics when the row is absent — a harness misconfiguration.
pub fn row<'a>(rows: &'a [Row], backend: &str, workload: &str) -> &'a Row {
    rows.iter()
        .find(|r| r.backend == backend && r.workload == workload)
        .unwrap_or_else(|| panic!("no row for backend {backend:?} workload {workload:?}"))
}

/// Where experiment results land: `results/<id>.json` under the working
/// directory (JSON-lines, one row object per line).
pub fn results_path(id: &str) -> PathBuf {
    PathBuf::from("results").join(format!("{id}.json"))
}

/// Writes JSON-lines rows to [`results_path`], creating `results/`.
///
/// # Errors
/// Any I/O error creating the directory or writing the file.
pub fn write_json_lines(id: &str, lines: &[String]) -> std::io::Result<PathBuf> {
    let path = results_path(id);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(&path)?;
    for l in lines {
        writeln!(f, "{l}")?;
    }
    Ok(path)
}

/// The standard result-emission epilogue of every experiment binary: writes
/// the rows as JSON-lines and reports where they landed. A read-only
/// working directory is a warning, not an abort — the printed tables stand
/// alone.
pub fn emit(id: &str, lines: &[String]) {
    match write_json_lines(id, lines) {
        Ok(path) => println!("\n[{} rows -> {}]", lines.len(), path.display()),
        Err(e) => eprintln!("warning: could not write results for {id}: {e}"),
    }
}

/// [`emit`] for comparison rows.
pub fn emit_rows(id: &str, rows: &[Row]) {
    let lines: Vec<String> = rows.iter().map(Row::json).collect();
    emit(id, &lines);
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_baselines::{CpuModel, GpuModel};
    use picachu_testkit::json::json_escape;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[0.0]);
    }

    #[test]
    fn ratio_format() {
        assert_eq!(ratio(1.857), "1.86x");
    }

    #[test]
    fn comparison_is_workload_major_and_complete() {
        let mut cpu = CpuModel::hosted();
        let mut gpu = GpuModel::default();
        let workloads = [
            Workload::prefill(&ModelConfig::gpt2(), 64),
            Workload::decode(&ModelConfig::gpt2(), 64),
        ];
        let rows = run_comparison(&mut [&mut cpu, &mut gpu], &workloads);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].workload, rows[1].workload);
        assert_eq!(rows[0].backend, "CPU");
        assert_eq!(rows[1].backend, "A100");
        for r in &rows {
            assert!(r.total > 0.0 && r.energy_nj > 0.0 && r.area_mm2 > 0.0, "{r:?}");
            assert!(
                (r.gemm + r.nonlinear + r.data_movement + r.overhead - r.total).abs()
                    <= 1e-9 * r.total,
                "phase-sum invariant: {r:?}"
            );
        }
        assert_eq!(row(&rows, "A100", &workloads[1].name).backend, "A100");
    }

    #[test]
    fn json_emission_is_well_formed() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let o = json_obj(&[
            ("name", Json::S("x\"y".into())),
            ("v", Json::F(1.5)),
            ("n", Json::I(-2)),
            ("ok", Json::B(true)),
            ("bad", Json::F(f64::NAN)),
        ]);
        assert_eq!(o, r#"{"name":"x\"y","v":1.5,"n":-2,"ok":true,"bad":null}"#);
        let r = Row {
            backend: "CPU".into(),
            workload: "w".into(),
            gemm: 1.0,
            nonlinear: 2.0,
            data_movement: 3.0,
            overhead: 0.0,
            total: 6.0,
            energy_nj: 9.0,
            area_mm2: 1.0,
        };
        assert!(r.json().starts_with(r#"{"backend":"CPU","workload":"w","gemm":1"#));
    }
}
