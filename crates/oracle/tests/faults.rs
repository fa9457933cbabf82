//! The fault-injection suite: run the fault sweep (full, or smoke with
//! `PICACHU_FAULT_SMOKE=1`) and demand zero discrepancies. On failure the
//! JSON-lines report prints, one replayable line per violation
//! (`PICACHU_FAULT_REPLAY=<case>` re-runs exactly that case).

use picachu_oracle::{run_fault_sweep, FaultSweepConfig};

#[test]
fn fault_oracle_is_green() {
    let smoke = std::env::var("PICACHU_FAULT_SMOKE").is_ok();
    let cfg = if smoke { FaultSweepConfig::smoke() } else { FaultSweepConfig::full() };
    let replay: Option<usize> =
        std::env::var("PICACHU_FAULT_REPLAY").ok().map(|c| c.parse().expect("not a case index"));

    let report = run_fault_sweep(&cfg, replay);
    println!("{}", report.summary());
    if !report.is_green() {
        for d in &report.discrepancies {
            println!("{}", d.to_json_line());
        }
        panic!(
            "fault oracle found {} discrepancies (JSON lines above are replayable)",
            report.discrepancies.len()
        );
    }

    if replay.is_some() {
        assert_eq!(report.cases, 1, "replay runs exactly one case");
    } else {
        assert_eq!(report.cases, cfg.case_count());
        if !smoke {
            assert!(report.cases >= 360, "sweep too small: {}", report.cases);
        }
    }
}
