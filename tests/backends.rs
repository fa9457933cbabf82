//! Backend-parity suite: every accelerator in the workspace — PICACHU plus
//! the five §5.4 baselines — runs the same prefill and decode traces behind
//! the unified [`picachu::Accelerator`] contract, and every report must be
//! finite, deterministic and phase-consistent. The PR-3 oracle identity
//! (`nonlinear_compute_cycles` = Σ compiled-loop cycles) and the PR-4
//! empty-fault-plan identity are re-checked through the trait path, so the
//! backend seam cannot drift from the engine it fronts.

use picachu::engine::{EngineConfig, PicachuEngine};
use picachu::{Accelerator, CompileCache, ExecutionReport};
use picachu_backend::HINT_WARM_TOLERANCE;
use picachu_baselines::{CpuModel, GemminiModel, GpuModel, HomogeneousCgraModel, TandemModel};
use picachu_llm::trace::TraceOp;
use picachu_llm::ModelConfig;
use std::sync::Arc;

/// Every backend in the workspace, freshly constructed.
fn all_backends() -> Vec<Box<dyn Accelerator>> {
    vec![
        Box::new(PicachuEngine::new(EngineConfig::default())),
        Box::new(CpuModel::hosted()),
        Box::new(GpuModel::default()),
        Box::new(GemminiModel::hosted()),
        Box::new(TandemModel::hosted()),
        Box::new(HomogeneousCgraModel::hosted()),
    ]
}

fn prefill() -> Vec<TraceOp> {
    picachu_llm::model_trace(&ModelConfig::gpt2(), 128)
}

fn decode() -> Vec<TraceOp> {
    picachu_llm::trace::batched_decode_trace(&ModelConfig::gpt2(), 128, 1)
}

fn assert_sane(r: &ExecutionReport, workload: &str) {
    assert!(r.is_sane(), "{} on {workload}: report not sane: {r}", r.backend);
    assert!(r.total() > 0.0, "{} on {workload}: zero total", r.backend);
    assert!(r.energy_nj > 0.0, "{} on {workload}: zero energy", r.backend);
}

#[test]
fn six_backends_cover_prefill_and_decode() {
    let mut seen = Vec::new();
    for mut b in all_backends() {
        let name = b.name().to_string();
        assert!(!seen.contains(&name), "duplicate backend name {name}");
        for (workload, trace) in [("prefill", prefill()), ("decode", decode())] {
            let r = b.execute_trace(&trace);
            assert_eq!(r.backend, name);
            assert_sane(&r, workload);
        }
        assert!(b.area_mm2() > 0.0, "{name}: no silicon priced");
        seen.push(name);
    }
    assert_eq!(seen.len(), 6, "PICACHU + five baselines");
}

#[test]
fn every_backend_is_deterministic_bit_for_bit() {
    for trace in [prefill(), decode()] {
        let first: Vec<ExecutionReport> =
            all_backends().iter_mut().map(|b| b.execute_trace(&trace)).collect();
        let second: Vec<ExecutionReport> =
            all_backends().iter_mut().map(|b| b.execute_trace(&trace)).collect();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.breakdown.gemm.to_bits(), b.breakdown.gemm.to_bits(), "{}", a.backend);
            assert_eq!(
                a.breakdown.nonlinear.to_bits(),
                b.breakdown.nonlinear.to_bits(),
                "{}",
                a.backend
            );
            assert_eq!(
                a.breakdown.data_movement.to_bits(),
                b.breakdown.data_movement.to_bits(),
                "{}",
                a.backend
            );
            assert_eq!(
                a.breakdown.overhead.to_bits(),
                b.breakdown.overhead.to_bits(),
                "{}",
                a.backend
            );
            assert_eq!(a.energy_nj.to_bits(), b.energy_nj.to_bits(), "{}", a.backend);
        }
    }
}

#[test]
fn healthy_dispatch_has_zero_overhead_phase() {
    // the `overhead` phase is reserved for fault service; no healthy
    // backend may put cycles there
    for mut b in all_backends() {
        let r = b.execute_trace(&prefill());
        assert_eq!(r.breakdown.overhead, 0.0, "{}: healthy overhead must be 0", r.backend);
    }
}

#[test]
fn picachu_trait_path_preserves_oracle_identities() {
    // PR-3 identity through the trait seam: the trait report's nonlinear
    // term for a single un-overlapped op equals Σ CompiledLoop::cycles
    let mut e = PicachuEngine::new(EngineConfig { streaming: false, ..EngineConfig::default() });
    let (rows, channel) = (32usize, 256usize);
    let op = picachu_nonlinear::NonlinearOp::Gelu;
    let expect = e.nonlinear_compute_cycles(op, rows, channel);
    let r = Accelerator::execute_trace(&mut e, &[TraceOp::Nonlinear { op, rows, channel }]);
    assert_eq!(r.breakdown.nonlinear, expect as f64, "Σ loop cycles identity");

    // PR-4 identity: the empty fault plan is the identity on the breakdown
    let trace = prefill();
    let healthy = Accelerator::execute_trace(&mut e, &trace).breakdown;
    let faulted = e
        .try_execute_trace_faulted(&trace, &picachu::faults::FaultPlan::none())
        .expect("empty plan executes");
    assert_eq!(healthy, faulted, "empty fault plan must be the identity");
}

#[test]
fn cost_hints_are_exact_when_warm_and_bounded_when_cold() {
    // the PR-6 placement contract: `estimate_trace` must agree with the
    // measured `execute_trace(..).total()` to HINT_WARM_TOLERANCE once a
    // backend is warm, and land within a small constant factor cold —
    // otherwise the serving placer schedules against fiction
    for (workload, trace) in [("prefill", prefill()), ("decode", decode())] {
        for mut b in all_backends() {
            let name = b.name().to_string();
            let cold = b.estimate_trace(&trace);
            let measured = b.execute_trace(&trace).total();
            assert!(
                cold.is_finite() && cold > 0.0,
                "{name} on {workload}: cold hint not positive-finite: {cold}"
            );
            let ratio = cold / measured;
            assert!(
                (0.125..=8.0).contains(&ratio),
                "{name} on {workload}: cold hint off by {ratio:.3}×"
            );
            // warm: after one real execution the hint must be exact
            let warm = b.estimate_trace(&trace);
            let rel = (warm - measured).abs() / measured;
            assert!(
                rel <= HINT_WARM_TOLERANCE,
                "{name} on {workload}: warm hint rel error {rel:e} > {HINT_WARM_TOLERANCE:e}"
            );
            // estimation is read-only: re-measuring is bit-identical
            let again = b.execute_trace(&trace).total();
            assert_eq!(again.to_bits(), measured.to_bits(), "{name}: estimate perturbed state");
        }
    }
}

#[test]
fn picachu_cold_hint_does_not_touch_the_compile_cache() {
    // estimating a trace on a cold engine must price it via
    // COLD_NONLINEAR_CYCLES_PER_ELEMENT without publishing mappings (or
    // even looking them up) as a side effect
    let cfg = EngineConfig { cgra_rows: 5, cgra_cols: 3, ..EngineConfig::default() };
    let e = PicachuEngine::new(cfg.clone());
    let trace = prefill();
    let cold = e.estimate_trace(&trace);
    assert!(cold > 0.0 && cold.is_finite());
    assert_eq!(e.compile_cache().stats(), (0, 0), "estimating compiled or looked up");
    // still cold after estimating: a second estimate is bit-identical and
    // a fresh engine with the same config sees the same cold number
    assert_eq!(e.estimate_trace(&trace).to_bits(), cold.to_bits());
    assert_eq!(PicachuEngine::new(cfg).estimate_trace(&trace).to_bits(), cold.to_bits());
}

#[test]
fn picachu_hint_ignores_other_engines_compiles() {
    // the fresh engine's hint must not change when a *different* engine
    // with the same config compiles the trace's kernels into the compile
    // cache both share
    let cfg = EngineConfig { seed: 0xE571_0001, ..EngineConfig::default() };
    let trace = prefill();
    let cache = Arc::new(CompileCache::new());
    let fresh = PicachuEngine::with_cache(cfg.clone(), cache.clone());
    let before = fresh.estimate_trace(&trace);
    PicachuEngine::with_cache(cfg, cache.clone()).execute_trace(&trace);
    assert!(cache.stats().1 > 0, "the other engine compiled into the shared cache");
    assert_eq!(fresh.estimate_trace(&trace).to_bits(), before.to_bits());
}

#[test]
fn relative_ordering_matches_the_paper() {
    // end-to-end on one LLaMA prefill trace through the unified harness:
    // PICACHU beats the CPU offload, Gemmini (whose scalar core owns
    // SwiGLU/RMSNorm/RoPE) and the conventional scalar CGRA; Tandem stays
    // the strongest baseline (the Fig. 8 premise). The GPU roofline is a
    // whole A100 die and is excluded from the on-chip ordering.
    let trace = picachu_llm::model_trace(&ModelConfig::llama2_7b(), 256);
    let totals: Vec<(String, f64)> = all_backends()
        .iter_mut()
        .map(|b| {
            let r = b.execute_trace(&trace);
            (r.backend.clone(), r.total())
        })
        .collect();
    let total = |name: &str| {
        totals
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    assert!(total("PICACHU") < total("CPU"), "PICACHU must beat the CPU offload");
    assert!(total("PICACHU") < total("Gemmini"), "PICACHU must beat Gemmini on LLaMA");
    assert!(total("PICACHU") < total("CGRA-base"), "PICACHU must beat the scalar CGRA");
    assert!(total("Tandem") < total("CGRA-base"), "vector unit beats scalar fabric");
}
