//! Multi-objective co-design search (§5.3.5's closing suggestion, §2.2's
//! DSE tradition): jointly search fabric geometry/flavor × Shared-Buffer
//! capacity × data format × compiler strategy for a target model and emit
//! the 4-D Pareto frontier (latency, energy, area, fault resilience) as
//! `results/pareto.json`.
//!
//! `--smoke` runs the seeded mini-search CI uses: one small model, the
//! reduced knob domains, and a fixed seed — the artifact must be
//! bit-identical across `PICACHU_THREADS` settings.

use picachu::dse::{search, SearchConfig};
use picachu_bench::{banner, emit, json_obj, Json};
use picachu_llm::ModelConfig;

/// The artifact id: rows land in `results/pareto.json`.
const ARTIFACT: &str = "pareto";

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        return smoke_main();
    }
    banner("DSE", "PICACHU multi-objective co-design search (seq 256)");
    let cfg = SearchConfig::default();
    let mut lines = Vec::new();
    for model in [ModelConfig::gpt2_xl(), ModelConfig::llama2_7b()] {
        run_one(&model, &cfg, &mut lines);
    }
    emit(ARTIFACT, &lines);
}

fn smoke_main() {
    banner("DSE", "co-design search smoke: seeded mini-search, deterministic artifact");
    let cfg = SearchConfig::smoke(0xD5E_5E8D);
    let mut lines = Vec::new();
    run_one(&ModelConfig::gpt2(), &cfg, &mut lines);
    assert!(!lines.is_empty(), "smoke search produced an empty frontier");
    emit(ARTIFACT, &lines);
}

fn run_one(model: &ModelConfig, cfg: &SearchConfig, lines: &mut Vec<String>) {
    let r = search(model, cfg);
    println!(
        "\n{}: {} candidates evaluated, {} on the Pareto frontier:",
        model.name,
        r.evaluated.len(),
        r.frontier.len()
    );
    println!(
        "{:<58} {:>12} {:>12} {:>8} {:>6}",
        "design", "cycles", "nJ", "mm2", "resil"
    );
    for p in &r.frontier {
        println!(
            "{:<58} {:>12.3e} {:>12.3e} {:>8.2} {:>6.2}",
            p.knobs.to_string(),
            p.latency,
            p.energy_nj,
            p.area_mm2,
            p.resilience
        );
        lines.push(json_obj(&[
            ("model", Json::S(model.name.to_string())),
            ("cgra_rows", Json::I(p.knobs.cgra_rows as i64)),
            ("cgra_cols", Json::I(p.knobs.cgra_cols as i64)),
            ("fabric", Json::S(p.knobs.fabric.to_string())),
            ("buffer_kb", Json::I(p.knobs.buffer_kb as i64)),
            ("format", Json::S(p.knobs.format.to_string())),
            ("lean_unroll", Json::B(p.knobs.lean_unroll)),
            ("incremental_repair", Json::B(p.knobs.incremental_repair)),
            ("latency", Json::F(p.latency)),
            ("energy_nj", Json::F(p.energy_nj)),
            ("area_mm2", Json::F(p.area_mm2)),
            ("resilience", Json::F(p.resilience)),
            ("utilization", Json::F(p.utilization)),
        ]));
    }
}
