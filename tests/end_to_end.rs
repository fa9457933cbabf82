//! Cross-crate integration tests: the full PICACHU pipeline from the
//! high-level front end down to the cycle simulator, plus the end-to-end
//! orderings the paper's evaluation depends on.

use picachu::engine::{EngineConfig, PicachuEngine};
use picachu::Accelerator;
use picachu_baselines::{CpuModel, GemminiModel, GpuModel, TandemModel};
use picachu_cgra::{CgraConfig, CgraSimulator};
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::frontend::{match_patterns, offload, HlGraph, OffloadItem, TensorOp};
use picachu_compiler::mapper::map_dfg;
use picachu_compiler::transform::fuse_patterns;
use picachu_ir::kernels::kernel_library;
use picachu_llm::ModelConfig;
use picachu_num::DataFormat;

/// Front end → offload plan → engine execution: the §4.3 flow end to end.
#[test]
fn frontend_to_engine_pipeline() {
    // a transformer FFN block as a front end would emit it
    let mut g = HlGraph::new();
    let x = g.push(TensorOp::Input, vec![], 128 * 768);
    let up = g.push(TensorOp::MatMul { m: 128, k: 768, n: 3072 }, vec![x], 128 * 3072);
    let act = g.push_decomposed_gelu(up, 128 * 3072);
    g.push(TensorOp::MatMul { m: 128, k: 3072, n: 768 }, vec![act], 128 * 768);

    assert_eq!(match_patterns(&mut g), 1);
    let plan = offload(&g);
    assert_eq!(plan.len(), 3, "{plan:?}");

    // execute the plan through the engine's primitives
    let mut engine = PicachuEngine::new(EngineConfig::default());
    let mut total = 0u64;
    for item in &plan {
        match *item {
            OffloadItem::SystolicGemm { m, k, n } => {
                total += engine.systolic().gemm_cycles(m, k, n);
            }
            OffloadItem::CgraKernel { name, elems } => {
                let op = picachu_nonlinear::NonlinearOp::ALL
                    .iter()
                    .copied()
                    .find(|o| o.name() == name)
                    .expect("known op");
                total += engine.nonlinear_compute_cycles(op, 1, elems);
            }
            OffloadItem::CgraElementwise { elems } => total += elems as u64,
        }
    }
    assert!(total > 0);
}

/// Every kernel in the library survives the full compile→simulate pipeline
/// on every fabric geometry of Fig. 7b.
#[test]
fn all_kernels_on_all_fabrics() {
    for (r, c) in [(3usize, 3usize), (4, 4), (5, 5), (4, 8)] {
        let spec = CgraSpec::picachu(r, c);
        for k in kernel_library(4) {
            for l in &k.loops {
                let fused = fuse_patterns(&l.dfg);
                let m = map_dfg(&fused, &spec, 13)
                    .unwrap_or_else(|e| panic!("{} on {r}x{c}: {e}", l.label));
                let cfg = CgraConfig::from_mapping(&fused, &m, &spec);
                let rep = CgraSimulator::new(&spec, &fused, &cfg).run(64);
                assert_eq!(rep.iterations, 64);
            }
        }
    }
}

/// Fig. 8a ordering: PICACHU beats CPU on every model, and beats Gemmini on
/// the LLaMA models while staying within range on GPT/OPT.
#[test]
fn end_to_end_orderings() {
    let mut engine = PicachuEngine::new(EngineConfig {
        format: DataFormat::Int16,
        ..EngineConfig::default()
    });
    for cfg in ModelConfig::evaluation_set() {
        let pic = engine.execute_model(&cfg, 512).total();
        let cpu = CpuModel::hosted().execute_model(&cfg, 512).total();
        assert!(pic < cpu, "{}: PICACHU {pic} !< CPU {cpu}", cfg.name);
    }
    for cfg in [ModelConfig::llama2_7b(), ModelConfig::llama2_13b()] {
        let pic = engine.execute_model(&cfg, 512).total();
        let gem = GemminiModel::hosted().execute_model(&cfg, 512).total();
        assert!(pic < gem, "{}: PICACHU {pic} !< Gemmini {gem}", cfg.name);
    }
}

/// Fig. 8b ordering at the trace level: PICACHU ≥ Tandem on nonlinear work.
#[test]
fn picachu_at_least_matches_tandem() {
    let mut engine = PicachuEngine::new(EngineConfig {
        format: DataFormat::Int16,
        ..EngineConfig::default()
    });
    for cfg in [ModelConfig::bert_base(), ModelConfig::gpt2()] {
        let pic = engine.execute_model(&cfg, 1024).total();
        let tan = TandemModel::hosted().execute_model(&cfg, 1024).total();
        assert!(pic <= tan, "{}: PICACHU {pic} !<= Tandem {tan}", cfg.name);
    }
}

/// Fig. 7c property: the buffer-size knee sits where one channel fits, and
/// larger buffers plateau.
#[test]
fn buffer_knee_and_plateau() {
    let run = |kb: usize| {
        let mut e = PicachuEngine::new(EngineConfig { buffer_kb: kb, ..EngineConfig::default() });
        e.execute_model(&ModelConfig::llama2_7b(), 256).total()
    };
    let t20 = run(20);
    let t40 = run(40);
    let t80 = run(80);
    assert!(t40 < t20, "40KB must beat 20KB for d=4096");
    assert!((t80 - t40).abs() / t40 < 0.01, "beyond the knee is flat");
}

/// Fig. 1 property at the GPU model level composed with real traces.
#[test]
fn gpu_nonlinear_share_shape() {
    let gpu = GpuModel::default();
    // grows with seq on LLaMA
    let shares: Vec<f64> = [256usize, 1024, 2048]
        .iter()
        .map(|&s| gpu.nonlinear_share(&ModelConfig::llama2_7b(), s))
        .collect();
    assert!(shares[0] < shares[1] && shares[1] < shares[2]);
    // GPT2-XL is the most nonlinear-heavy dense model at 1024
    let g = gpu.nonlinear_share(&ModelConfig::gpt2_xl(), 1024);
    let o = gpu.nonlinear_share(&ModelConfig::opt_6_7b(), 1024);
    assert!(g > o);
}

/// Energy accounting is consistent across engine configurations.
#[test]
fn energy_scales_with_work() {
    let mut small = PicachuEngine::new(EngineConfig::default());
    let b1 = small.execute_model(&ModelConfig::gpt2(), 128);
    let b2 = small.execute_model(&ModelConfig::gpt2(), 512);
    assert!(small.energy_nj(&b2) > small.energy_nj(&b1) * 3.0);
}

/// The INT16 path is never slower end to end than FP32 (it vectorizes), and
/// both produce identical GEMM time (GEMMs are format-independent here).
#[test]
fn int16_no_slower_than_fp32() {
    let total = |fmt: DataFormat| {
        let mut e = PicachuEngine::new(EngineConfig { format: fmt, ..EngineConfig::default() });
        e.execute_model(&ModelConfig::opt_6_7b(), 256)
    };
    let fp32 = total(DataFormat::Fp32);
    let int16 = total(DataFormat::Int16);
    assert!(int16.total() <= fp32.total());
    assert_eq!(int16.gemm, fp32.gemm);
}
