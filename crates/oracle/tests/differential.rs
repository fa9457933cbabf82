//! The tier-1 differential suite: run the full (or smoke) sweep and demand
//! zero discrepancies. On failure the JSON-lines report prints, one
//! replayable line per violation.

use picachu_oracle::{run_sweep, SweepConfig};

#[test]
fn differential_oracle_is_green() {
    let smoke = std::env::var("PICACHU_ORACLE_SMOKE").is_ok();
    let cfg = if smoke { SweepConfig::smoke() } else { SweepConfig::full() };
    let replay: Option<usize> =
        std::env::var("PICACHU_ORACLE_REPLAY").ok().map(|c| c.parse().expect("not a case index"));

    let report = run_sweep(&cfg, replay);
    println!("{}", report.summary());
    for s in &report.numerics {
        println!("{}", s.to_json_line());
    }
    if !report.is_green() {
        for d in &report.discrepancies {
            println!("{}", d.to_json_line());
        }
        panic!(
            "differential oracle found {} discrepancies (JSON lines above are replayable)",
            report.discrepancies.len()
        );
    }

    if replay.is_some() {
        assert_eq!(report.cases, 1, "replay runs exactly one case");
    } else if smoke {
        assert_eq!(report.cases, cfg.case_count());
    } else {
        assert!(report.cases >= 200, "sweep too small: {}", report.cases);
        assert_eq!(report.cases, cfg.case_count());
    }
}
