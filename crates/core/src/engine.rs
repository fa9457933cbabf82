//! The PICACHU end-to-end execution engine.
//!
//! A thin composition of the three pipeline stages in [`crate::stages`]:
//! the [`CompileService`] maps each nonlinear kernel loop onto the CGRA
//! (picking the best unroll factor, and the INT16 vector factor when the
//! user selects that format), the [`Dispatcher`] walks operator traces over
//! the systolic-array/Shared-Buffer substrate applying the §4.2.4 dataflow
//! cases, and the [`Accountant`] rolls the resulting phase totals into
//! energy and area. The engine wires the stages together, preserves the
//! historical single-object API, and implements the workspace-wide
//! [`Accelerator`] backend contract the comparison harness drives.

use crate::compile_cache::CompileCache;
use crate::error::PicachuError;
use crate::stages::{Accountant, CompileService, Dispatcher};
use picachu_backend::{Accelerator, Breakdown, ExecutionReport};
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::{MapError, PnrReport, ResourceMask};
use picachu_faults::FaultPlan;
use picachu_llm::trace::TraceOp;
use picachu_llm::ModelConfig;
use picachu_nonlinear::NonlinearOp;
use picachu_num::DataFormat;
use picachu_systolic::SystolicArray;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

pub use crate::stages::compile::{kernel_for, CompiledLoop, DegradedCompile, FallbackLevel};
pub use crate::stages::dispatch::ECC_MAX_DETECTED;

/// Which CGRA fabric flavor the engine builds — the tile-class/routing
/// layout knob [`CgraSpec`] exposes. The co-design search
/// ([`crate::dse`]) treats this as a first-class dimension: the
/// heterogeneous layout is smaller, the universal one trades area for
/// placement freedom (every PE hosts every opcode, so degraded fabrics
/// keep more repair headroom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// The paper's heterogeneous BaT/BrT/CoT layout
    /// ([`CgraSpec::picachu`]).
    Heterogeneous,
    /// Every PE universal ([`CgraSpec::universal`]).
    Universal,
}

impl fmt::Display for FabricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricKind::Heterogeneous => write!(f, "het"),
            FabricKind::Universal => write!(f, "uni"),
        }
    }
}

/// Engine configuration (defaults reproduce the paper's evaluation setup:
/// 4×4 CGRA + 32×32 systolic array + 40 KB Shared Buffer at 1 GHz).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// CGRA grid rows.
    pub cgra_rows: usize,
    /// CGRA grid columns.
    pub cgra_cols: usize,
    /// CGRA fabric flavor (tile-class layout).
    pub fabric: FabricKind,
    /// Systolic array rows.
    pub systolic_rows: usize,
    /// Systolic array columns.
    pub systolic_cols: usize,
    /// Shared Buffer size in KB.
    pub buffer_kb: usize,
    /// Kernel data format (INT16 enables 4-lane vectorization).
    pub format: DataFormat,
    /// Taylor terms for the exp/sin hardware kernels.
    pub taylor_terms: usize,
    /// Unroll factors the compiler tries per kernel loop.
    pub unroll_candidates: Vec<usize>,
    /// Mapper seed.
    pub seed: u64,
    /// Double buffering in the Shared Buffer (§4.2.3). Off = serialized
    /// fills/drains (ablation knob).
    pub double_buffering: bool,
    /// Streaming overlap with the systolic array (Case 1). Off = every
    /// element-wise op fully exposed (ablation knob).
    pub streaming: bool,
    /// Whether fault recovery may take the degradation ladder's
    /// incremental-repair rung (retained II, pinned surviving placements).
    /// Off = every degraded compile is a full re-map — the deployment
    /// keeps no healthy mapping resident for repair. A co-design search
    /// knob: repair retains capacity under faults but implies the serving
    /// node holds healthy mappings for every kernel it may need to fix.
    pub incremental_repair: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cgra_rows: 4,
            cgra_cols: 4,
            fabric: FabricKind::Heterogeneous,
            systolic_rows: 32,
            systolic_cols: 32,
            buffer_kb: 40,
            // FP16 storage with FP32 intermediates, the paper's default
            format: DataFormat::Fp16,
            taylor_terms: 4,
            unroll_candidates: vec![1, 2, 4, 8],
            seed: 0x71CA,
            double_buffering: true,
            streaming: true,
            incremental_repair: true,
        }
    }
}

/// Cycles per nonlinear element the cold capacity hint charges when the
/// engine has not compiled a kernel itself (see
/// [`Accelerator::estimate_trace`] on the engine). Exposed nonlinear cost
/// on the healthy 4×4 fabric lands between ~0.5 (vectorized element-wise,
/// mostly overlapped) and ~4 (multi-loop reductions) cycles/element across
/// the paper kernels, so 2 keeps the cold estimate within the parity
/// suite's constant-factor envelope.
pub const COLD_NONLINEAR_CYCLES_PER_ELEMENT: f64 = 2.0;

/// The engine: the staged compile → dispatch → account pipeline behind one
/// object, plus the fault-path orchestration that spans the stages.
#[derive(Debug)]
pub struct PicachuEngine {
    /// Configuration.
    pub config: EngineConfig,
    pub(crate) compile: CompileService,
    dispatch: Dispatcher,
    account: Accountant,
}

impl PicachuEngine {
    /// Builds an engine with a private compile cache (the CGRA and
    /// substrate models come up immediately; kernels are compiled lazily on
    /// first use).
    pub fn new(config: EngineConfig) -> PicachuEngine {
        PicachuEngine::with_cache(config, Arc::new(CompileCache::new()))
    }

    /// Builds an engine compiling through `cache`, shared with every engine
    /// on the same handle: the outputs of [`PicachuEngine::new`], more hits.
    pub fn with_cache(config: EngineConfig, cache: Arc<CompileCache>) -> PicachuEngine {
        let spec = match config.fabric {
            FabricKind::Heterogeneous => {
                CgraSpec::picachu(config.cgra_rows, config.cgra_cols)
            }
            FabricKind::Universal => {
                CgraSpec::universal(config.cgra_rows, config.cgra_cols)
            }
        };
        let compile = CompileService::new(spec, cache);
        let dispatch = Dispatcher::new(&config);
        PicachuEngine { compile, dispatch, account: Accountant::new(), config }
    }

    /// The CGRA fabric specification in use.
    pub fn spec(&self) -> &CgraSpec {
        self.compile.spec()
    }

    /// The compile cache this engine reads and publishes to; its
    /// [`stats`](CompileCache::stats) count every sharing engine's lookups.
    pub fn compile_cache(&self) -> &Arc<CompileCache> {
        &self.compile.cache
    }

    /// The systolic array model in use.
    pub fn systolic(&self) -> &SystolicArray {
        self.dispatch.systolic()
    }

    /// Compiles (or returns cached) loops for a nonlinear operation.
    ///
    /// # Panics
    /// Panics if a kernel loop fails to map on the fabric at every candidate
    /// unroll factor — a fabric misconfiguration, not a runtime condition.
    /// Serve paths that must stay up use
    /// [`PicachuEngine::try_compile_op`] instead.
    pub fn compile_op(&mut self, op: NonlinearOp) -> &[CompiledLoop] {
        if let Err(e) = self.compile.try_compile_op(&self.config, op) {
            panic!("{e}");
        }
        self.compile.loops(op)
    }

    /// The non-panicking compile path: compiles (or returns cached) loops,
    /// reporting failure as a typed error instead of aborting.
    ///
    /// # Errors
    /// [`PicachuError::Compile`] when some kernel loop fails to map at every
    /// candidate unroll factor.
    pub fn try_compile_op(
        &mut self,
        op: NonlinearOp,
    ) -> Result<Arc<Vec<CompiledLoop>>, PicachuError> {
        self.compile.try_compile_op(&self.config, op)
    }

    /// Warms the compile caches for `ops` in one flat parallel batch: the
    /// whole multi-op search space is submitted to the runtime pool as a
    /// single grouped pass (see [`CompileService::warm`]), so a serving node
    /// compiles its tenants' kernel set at full parallelism before taking
    /// traffic. Bit-identical to compiling each op serially; on a cache with
    /// a mapping store ([`CompileCache::with_store`]), previously-persisted
    /// kernels load from disk instead of mapping at all.
    ///
    /// # Errors
    /// [`PicachuError::Compile`] for the first op whose kernel fails to map.
    pub fn prewarm(&mut self, ops: &[NonlinearOp]) -> Result<(), PicachuError> {
        self.compile.warm(&self.config, ops)
    }

    /// Compiles `op` for a faulted fabric through the DESIGN §7 degradation
    /// ladder (see [`CompileService::compile_op_degraded`]).
    ///
    /// # Errors
    /// [`PicachuError::Compile`] when every rung fails.
    pub fn compile_op_degraded(
        &mut self,
        op: NonlinearOp,
        plan: &FaultPlan,
    ) -> Result<DegradedCompile, PicachuError> {
        self.compile.compile_op_degraded(&self.config, op, plan)
    }

    /// Reconstructs the exact lowered DFG the mapper saw for loop
    /// `loop_idx` of `op` (see [`CompileService::lowered_dfg`] — the
    /// differential oracle replays this DFG on the cycle-level simulator).
    pub fn lowered_dfg(
        &self,
        op: NonlinearOp,
        loop_idx: usize,
        uf: usize,
        vf: usize,
    ) -> picachu_ir::dfg::Dfg {
        self.compile.lowered_dfg(&self.config, op, loop_idx, uf, vf)
    }

    /// The mapper seed used for loop `loop_idx` (derived from the config
    /// seed so that sibling loops explore independent placements).
    pub fn loop_seed(&self, loop_idx: usize) -> u64 {
        CompileService::loop_seed(&self.config, loop_idx)
    }

    /// The compile-cache key of this engine's healthy compilation of `op`:
    /// the key [`export_bitstream`](crate::mapstore::bitstream::export_bitstream)
    /// and the mapping store file name take.
    pub fn compile_key(&self, op: NonlinearOp) -> crate::CompileKey {
        self.compile.compile_key(&self.config, op)
    }

    /// Post-P&R quality reports for every compiled loop of `op`, labelled:
    /// the Route+Fold passes replayed over the cached mappings on the
    /// healthy fabric (see [`picachu_compiler::mapper::pnr_report`]). Pure
    /// analysis — nothing about the cached mappings changes, so calling
    /// this is free of compile-cache side effects beyond the compile
    /// itself.
    ///
    /// # Errors
    /// [`PicachuError::Compile`] when some kernel loop fails to map.
    pub fn pnr_reports(
        &mut self,
        op: NonlinearOp,
    ) -> Result<Vec<(String, PnrReport)>, PicachuError> {
        let loops = self.compile.try_compile_op(&self.config, op)?;
        let mask = ResourceMask::full(self.compile.spec());
        let mut reports = Vec::with_capacity(loops.len());
        for (idx, l) in loops.iter().enumerate() {
            let dfg = self.compile.lowered_dfg(&self.config, op, idx, l.uf, l.vf);
            let report = picachu_compiler::mapper::pnr_report(
                &dfg,
                self.compile.spec(),
                &mask,
                &l.mapping,
            )
            .ok_or_else(|| PicachuError::Compile {
                op,
                label: l.label.clone(),
                source: MapError::Internal("cached mapping does not route"),
            })?;
            reports.push((l.label.clone(), report));
        }
        Ok(reports)
    }

    /// Raw CGRA compute cycles for one nonlinear trace op (no memory-system
    /// effects) — the quantity the kernel-level figures use.
    pub fn nonlinear_compute_cycles(&mut self, op: NonlinearOp, rows: usize, channel: usize) -> u64 {
        let elems = (rows * channel) as u64;
        self.compile_op(op).iter().map(|l| l.cycles(elems)).sum()
    }

    /// Executes a full operator trace with the §4.2.4 dataflow cases: the
    /// healthy run is [`PicachuEngine::try_execute_trace_faulted`] under the
    /// empty plan.
    ///
    /// # Panics
    /// Panics (like [`PicachuEngine::compile_op`]) when a kernel fails to map.
    pub fn execute_trace(&mut self, trace: &[TraceOp]) -> Breakdown {
        match self.try_execute_trace_faulted(trace, &FaultPlan::none()) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Executes `trace` under a fault plan, the engine's one trace walk that
    /// compiles: the distinct nonlinear ops warm their healthy loops in one
    /// flat batch ([`CompileService::warm`]), take the degradation ladder
    /// ([`PicachuEngine::compile_op_degraded`]; on an intact fabric, a memo
    /// hit on the healthy entry the warm recorded) and the dispatcher walks
    /// the trace against them. The plan's SRAM/DMA fault service
    /// ([`Dispatcher::fault_overhead`]) lands in the `overhead` phase, so the
    /// other terms keep their healthy accounting. Deterministic in
    /// `(self.config, trace, plan)`.
    ///
    /// # Errors
    /// [`PicachuError::Compile`] when an op survives no rung of the ladder
    /// (under the empty plan: when its kernel fails to map),
    /// [`PicachuError::EccStorm`] past the re-fetch budget, or
    /// [`PicachuError::Dma`] when a transfer exhausts its retries.
    pub fn try_execute_trace_faulted(
        &mut self,
        trace: &[TraceOp],
        plan: &FaultPlan,
    ) -> Result<Breakdown, PicachuError> {
        let mut ops: Vec<NonlinearOp> = Vec::new();
        for t in trace {
            if let TraceOp::Nonlinear { op, .. } = *t {
                if !ops.contains(&op) {
                    ops.push(op);
                }
            }
        }
        // a healthy compile failure is the ladder's to report, below
        let _ = self.compile.warm(&self.config, &ops);
        let mut loops = HashMap::with_capacity(ops.len());
        for op in ops {
            loops.insert(op, self.compile.compile_op_degraded(&self.config, op, plan)?.loops);
        }
        let mut totals =
            self.dispatch.execute_trace(&self.config, trace, &mut |op| loops[&op].as_slice());
        let overhead = self.dispatch.fault_overhead(&self.config, trace, plan)?;
        totals.overhead = totals.overhead.saturating_add(overhead);
        Ok(totals.breakdown())
    }

    /// End-to-end evaluation of a model at a sequence length.
    pub fn execute_model(&mut self, cfg: &ModelConfig, seq: usize) -> Breakdown {
        self.execute_trace(&picachu_llm::model_trace(cfg, seq))
    }

    /// Energy in nJ for an exposed breakdown at 1 GHz (see
    /// [`Accountant::energy_nj`]).
    pub fn energy_nj(&self, b: &Breakdown) -> f64 {
        self.account.energy_nj(&self.config, self.compile.spec(), b)
    }

    /// [`PicachuEngine::energy_nj`] with the CGRA dynamic-power term scaled
    /// by a measured fabric utilization instead of the nominal 0.7 activity
    /// (see [`Accountant::energy_nj_with_cgra_utilization`] — the DSE feeds
    /// the mapping-derived utilization from
    /// [`PicachuEngine::cgra_utilization`] here).
    pub fn energy_nj_at_utilization(&self, b: &Breakdown, utilization: f64) -> f64 {
        self.account
            .energy_nj_with_cgra_utilization(&self.config, self.compile.spec(), b, utilization)
    }

    /// Mean CGRA compute-slot utilization over the compiled mappings of
    /// `ops` — placements / (tiles × II) per kernel loop
    /// ([`picachu_compiler::mapper::Mapping::utilization`]), averaged over
    /// every loop of every op. Compiles any op not yet cached. `None` when
    /// `ops` is empty (nothing mapped, utilization is undefined — callers
    /// fall back to the nominal activity factor).
    ///
    /// # Errors
    /// [`PicachuError::Compile`] when some kernel loop fails to map.
    pub fn cgra_utilization(
        &mut self,
        ops: &[NonlinearOp],
    ) -> Result<Option<f64>, PicachuError> {
        let tiles = self.compile.spec().len();
        let mut sum = 0.0;
        let mut loops = 0usize;
        for &op in ops {
            for l in self.compile.try_compile_op(&self.config, op)?.iter() {
                sum += l.mapping.utilization(tiles);
                loops += 1;
            }
        }
        Ok((loops > 0).then(|| sum / loops as f64))
    }

    /// Systolic-array SRAM capacity in KB (see
    /// [`Accountant::systolic_sram_kb`]).
    pub fn systolic_sram_kb(rows: usize, cols: usize) -> f64 {
        Accountant::systolic_sram_kb(rows, cols)
    }
}

impl Accelerator for PicachuEngine {
    fn name(&self) -> &str {
        "PICACHU"
    }

    /// The inherent [`PicachuEngine::execute_trace`] (panicking, like it,
    /// when a kernel fails to map), stamped into a report.
    fn execute_trace(&mut self, trace: &[TraceOp]) -> ExecutionReport {
        let b = PicachuEngine::execute_trace(self, trace);
        self.report(b)
    }

    /// The capacity hint. **Warm** (this engine's compile memo holds a
    /// healthy entry with loops for every distinct nonlinear op of the
    /// trace; what engines sharing its compile cache put there does not
    /// count): runs the real dispatcher read-only against those mappings, so
    /// the estimate *is* the measurement, bit for bit. **Cold**: GEMM cycles
    /// are still exact (the systolic model is stateless); nonlinear work
    /// is priced at [`COLD_NONLINEAR_CYCLES_PER_ELEMENT`] without mapping
    /// anything — crude, and the parity suite bounds the error to a small
    /// constant factor. Nothing on the serving path reads this hint: a
    /// shard prices its table by running traces.
    fn estimate_trace(&self, trace: &[TraceOp]) -> f64 {
        let warm = trace.iter().all(|t| match *t {
            TraceOp::Nonlinear { op, .. } => !self.compile.loops(op).is_empty(),
            TraceOp::Gemm { .. } => true,
        });
        if warm {
            let totals =
                self.dispatch.execute_trace(&self.config, trace, &mut |op| self.compile.loops(op));
            return totals.breakdown().total();
        }
        trace
            .iter()
            .map(|t| match *t {
                TraceOp::Gemm { m, k, n, count } => {
                    (self.dispatch.systolic().gemm_cycles(m, k, n) * count as u64) as f64
                }
                TraceOp::Nonlinear { .. } => {
                    t.elements() as f64 * COLD_NONLINEAR_CYCLES_PER_ELEMENT
                }
            })
            .sum()
    }

    fn energy_nj(&self, b: &Breakdown) -> f64 {
        PicachuEngine::energy_nj(self, b)
    }

    fn area_mm2(&self) -> f64 {
        self.account.area_mm2(&self.config, self.compile.spec())
    }
}

impl fmt::Display for PicachuEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PICACHU engine: {}x{} {} CGRA + {}x{} systolic + {} KB buffer ({})",
            self.config.cgra_rows,
            self.config.cgra_cols,
            self.config.fabric,
            self.config.systolic_rows,
            self.config.systolic_cols,
            self.config.buffer_kb,
            self.config.format
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> PicachuEngine {
        PicachuEngine::new(EngineConfig::default())
    }

    #[test]
    fn compile_caches() {
        let mut e = engine();
        let a = e.compile_op(NonlinearOp::Gelu).len();
        let b = e.compile_op(NonlinearOp::Gelu).len();
        assert_eq!(a, b);
        assert_eq!(a, 1);
        assert_eq!(e.compile_op(NonlinearOp::Softmax).len(), 3);
    }

    #[test]
    fn pnr_reports_cover_every_loop() {
        // default 4×4 (greedy, bit-frozen — its mappings predate the
        // channel model, so congestion_free is reported, not required)
        let mut e = engine();
        let loops = e.compile_op(NonlinearOp::Softmax).to_vec();
        let reports = e.pnr_reports(NonlinearOp::Softmax).expect("cached mappings report");
        assert_eq!(reports.len(), loops.len());
        for ((label, r), l) in reports.iter().zip(&loops) {
            assert_eq!(label, &l.label);
            assert_eq!(r.achieved_ii, l.mapping.ii, "{label}");
            assert!(r.area_used > 0.0 && r.area_used <= 1.0, "{label}: area {}", r.area_used);
            assert!(
                (0.0..=1.0).contains(&r.channel_utilization),
                "{label}: chan {}", r.channel_utilization
            );
        }
    }

    #[test]
    fn annealed_pnr_reports_are_congestion_free() {
        // 16×16 takes the staged pipeline, where the Route pass is the
        // acceptance gate: every cached mapping must be congestion-free
        let mut e = PicachuEngine::new(EngineConfig {
            cgra_rows: 16,
            cgra_cols: 16,
            unroll_candidates: vec![1, 2],
            ..EngineConfig::default()
        });
        let reports = e.pnr_reports(NonlinearOp::Softmax).expect("cached mappings report");
        assert!(!reports.is_empty());
        for (label, r) in &reports {
            assert!(r.congestion_free, "{label}: annealed mapping must route congestion-free");
        }
    }

    #[test]
    fn int16_vectorizes_elementwise_loops() {
        let mut e = PicachuEngine::new(EngineConfig {
            format: DataFormat::Int16,
            ..EngineConfig::default()
        });
        let loops = e.compile_op(NonlinearOp::Gelu);
        assert_eq!(loops[0].vf, 4);
        let softmax = e.compile_op(NonlinearOp::Softmax).to_vec();
        assert_eq!(softmax[0].vf, 4, "max reduction uses 4 lane partials");
        assert_eq!(softmax[2].vf, 4, "divide loop vectorizes");
    }

    #[test]
    fn end_to_end_faster_than_gemmini_on_llama() {
        let mut e = engine();
        let cfg = ModelConfig::llama2_13b();
        let ours = e.execute_model(&cfg, 256).total();
        let sys = SystolicArray::new(32, 32);
        let gem = picachu_baselines::common::evaluate_model(
            &picachu_baselines::GemminiModel::default(),
            &sys,
            &cfg,
            256,
        )
        .total();
        assert!(ours < gem, "PICACHU {ours} should beat Gemmini {gem} on LLaMA2");
    }

    #[test]
    fn nonlinear_share_drops_vs_gpu_profile() {
        // Fig. 9b: nonlinear latency share falls to ~20% on PICACHU.
        let mut e = engine();
        let b = e.execute_model(&ModelConfig::llama2_7b(), 256);
        let share = (b.nonlinear + b.data_movement) / b.total();
        assert!(share < 0.45, "share {share}");
        assert!(b.gemm > 0.0 && b.nonlinear > 0.0);
    }

    #[test]
    fn tall_skinny_softmax_does_not_underflow() {
        // Regression: the exposed softmax cycles were computed as
        // `compute - overlap`, and the per-row overlap term pays the
        // prologue once per row — for rows >> channel it exceeded the
        // whole-tensor compute and wrapped u64 to ~2^64 cycles.
        let mut e = engine();
        let trace = [
            TraceOp::Gemm { m: 8192, k: 4, n: 4, count: 1 },
            TraceOp::Nonlinear { op: NonlinearOp::Softmax, rows: 8192, channel: 4 },
        ];
        let b = e.execute_trace(&trace);
        assert!(b.nonlinear.is_finite());
        assert!(
            b.nonlinear < 1e12,
            "tall-skinny softmax wrapped: {} exposed cycles",
            b.nonlinear
        );
        // and the accounting is still per-loop sane: at least the non-first
        // loops' steady-state work is exposed
        let loops = e.compile_op(NonlinearOp::Softmax).to_vec();
        let rest: u64 = loops[1..].iter().map(|l| l.cycles(8192 * 4)).sum();
        assert!(b.nonlinear >= rest as f64, "{} < {}", b.nonlinear, rest);
    }

    #[test]
    fn energy_scales_with_systolic_geometry() {
        // Regression: energy_nj hardcoded 225 KB of systolic SRAM, so
        // non-32x32 DSE points were charged a 32x32 memory system.
        assert!((PicachuEngine::systolic_sram_kb(32, 32) - 225.0).abs() < 1e-12);
        let b = Breakdown { gemm: 1e6, nonlinear: 1e5, data_movement: 1e4, overhead: 0.0 };
        let half = PicachuEngine::new(EngineConfig {
            systolic_rows: 16,
            systolic_cols: 16,
            ..EngineConfig::default()
        });
        let full = engine();
        assert!(
            half.energy_nj(&b) < full.energy_nj(&b),
            "16x16 systolic must be charged less SRAM than 32x32"
        );
    }

    #[test]
    fn energy_positive_and_monotone() {
        let e = engine();
        let small = Breakdown { gemm: 1e6, nonlinear: 1e5, ..Breakdown::default() };
        let big = Breakdown { gemm: 2e6, nonlinear: 2e5, data_movement: 1e4, overhead: 0.0 };
        assert!(e.energy_nj(&small) > 0.0);
        assert!(e.energy_nj(&big) > e.energy_nj(&small));
    }

    #[test]
    fn decode_trace_executes() {
        let mut e = engine();
        let trace = picachu_llm::trace::batched_decode_trace(&ModelConfig::llama2_7b(), 512, 1);
        let b = e.execute_trace(&trace);
        assert!(b.total() > 0.0);
        // decode is GEMV-bound on the systolic array; nonlinear stays small
        assert!(b.gemm > b.nonlinear, "{b}");
    }

    #[test]
    fn streaming_off_is_never_faster() {
        let total = |streaming: bool| {
            let mut e = PicachuEngine::new(EngineConfig { streaming, ..EngineConfig::default() });
            e.execute_model(&ModelConfig::gpt2(), 256).total()
        };
        assert!(total(true) <= total(false));
    }

    #[test]
    fn double_buffering_off_is_never_faster() {
        let total = |double_buffering: bool| {
            let mut e = PicachuEngine::new(EngineConfig {
                double_buffering,
                ..EngineConfig::default()
            });
            e.execute_model(&ModelConfig::llama2_7b(), 128).total()
        };
        assert!(total(true) <= total(false));
    }

    #[test]
    fn degraded_compile_survives_every_single_dead_tile() {
        let mut e = engine();
        for tile in 0..16 {
            let plan = picachu_faults::FaultPlan::dead_tile(tile);
            let dc = e
                .compile_op_degraded(NonlinearOp::Softmax, &plan)
                .unwrap_or_else(|err| panic!("dead tile {tile}: {err}"));
            assert_eq!(dc.alive_tiles, 15);
            assert!(dc.ii_inflation > 0.0);
            for l in dc.loops.iter() {
                for p in &l.mapping.placements {
                    assert_ne!(p.tile, tile, "placement on dead tile {tile}");
                }
            }
        }
    }

    #[test]
    fn degraded_compile_survives_every_single_dead_link() {
        let mut e = engine();
        for r in 0..4usize {
            for c in 0..4usize {
                let t = r * 4 + c;
                let mut links = Vec::new();
                if c + 1 < 4 {
                    links.push((t, t + 1));
                }
                if r + 1 < 4 {
                    links.push((t, t + 4));
                }
                for (a, b) in links {
                    let plan = picachu_faults::FaultPlan::dead_link(a, b);
                    e.compile_op_degraded(NonlinearOp::Gelu, &plan)
                        .unwrap_or_else(|err| panic!("dead link {a}-{b}: {err}"));
                }
            }
        }
    }

    #[test]
    fn degraded_compile_reports_inflation_against_healthy_baseline() {
        let mut e = engine();
        let plan = picachu_faults::FaultPlan::dead_tile(0)
            .with_dead_tile(5)
            .with_dead_tile(10);
        let dc = e.compile_op_degraded(NonlinearOp::Silu, &plan).unwrap();
        assert_eq!(dc.alive_tiles, 13);
        // reported, not asserted monotone — but it must be a real ratio
        assert!(dc.ii_inflation.is_finite() && dc.ii_inflation > 0.0);
    }

    #[test]
    fn dead_fabric_is_rejected_typed_not_panicking() {
        let mut e = engine();
        // kill 15 of 16 tiles; the lone survivor cannot host a whole kernel
        // at any II within slack on the heterogeneous fabric, and on the
        // universal fallback it either maps (degraded service) or the whole
        // request is rejected with a typed error — never a panic
        let mut plan = picachu_faults::FaultPlan::none();
        for t in 0..15 {
            plan = plan.with_dead_tile(t);
        }
        match e.compile_op_degraded(NonlinearOp::Softmax, &plan) {
            Ok(dc) => assert_eq!(dc.fallback, FallbackLevel::Universal),
            Err(PicachuError::Compile { op, .. }) => assert_eq!(op, NonlinearOp::Softmax),
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }

    #[test]
    fn faulted_trace_with_empty_plan_matches_healthy() {
        use ModelConfig as M;
        let presets = [
            M::gpt2_xl(), M::gpt2(), M::bert_base(), M::bigbird(), M::opt_6_7b(),
            M::opt_13b(), M::llama_7b(), M::llama_13b(), M::llama2_7b(), M::llama2_13b(),
        ];
        let bits =
            |b: Breakdown| [b.gemm, b.nonlinear, b.data_movement, b.overhead].map(f64::to_bits);
        // separate engines, so neither run sees the other's compiles
        let (mut healthy, mut faulted) = (engine(), engine());
        for cfg in presets {
            for trace in [
                picachu_llm::model_trace(&cfg, 256),
                picachu_llm::trace::batched_decode_trace(&cfg, 256, 1),
                picachu_llm::trace::batched_decode_trace(&cfg, 256, 8),
            ] {
                let h = healthy.execute_trace(&trace);
                let f = faulted
                    .try_execute_trace_faulted(&trace, &picachu_faults::FaultPlan::none())
                    .unwrap();
                assert_eq!(bits(h), bits(f), "{}: empty plan must be the identity", cfg.name);
                assert_eq!(f.overhead, 0.0, "no faults, no service overhead");
                // and the healthy dispatch is untouched by the faulted one
                assert_eq!(bits(faulted.execute_trace(&trace)), bits(h), "{}", cfg.name);
            }
        }
    }

    #[test]
    fn faulted_trace_accounts_ecc_and_dma_overhead() {
        let mut e = engine();
        let trace = picachu_llm::model_trace(&ModelConfig::gpt2(), 64);
        let healthy = e.execute_trace(&trace);
        // two correctable words + one detected-uncorrectable re-fetch
        let plan = picachu_faults::FaultPlan::none()
            .with_sram_flip(3, 1)
            .with_sram_flip(700, 1)
            .with_sram_flip(41, 2);
        let b = e.try_execute_trace_faulted(&trace, &plan).unwrap();
        assert!(
            b.overhead > 0.0,
            "ECC scrubs and the re-fetch must cost overhead cycles"
        );
        assert_eq!(
            b.data_movement, healthy.data_movement,
            "fault service lands in the overhead phase, not data_movement"
        );
        assert_eq!(b.gemm, healthy.gemm, "faults never touch GEMM time");
    }

    #[test]
    fn ecc_storm_rejects() {
        let mut e = engine();
        let trace = picachu_llm::model_trace(&ModelConfig::gpt2(), 64);
        let mut plan = picachu_faults::FaultPlan::none();
        for w in 0..(ECC_MAX_DETECTED + 1) {
            plan = plan.with_sram_flip(w, 2);
        }
        match e.try_execute_trace_faulted(&trace, &plan) {
            Err(PicachuError::EccStorm { detected, limit }) => {
                assert_eq!(detected, ECC_MAX_DETECTED + 1);
                assert_eq!(limit, ECC_MAX_DETECTED);
            }
            other => panic!("expected EccStorm, got {other:?}"),
        }
    }

    #[test]
    fn bigger_buffer_never_slower() {
        let mk = |kb: usize| {
            let mut e = PicachuEngine::new(EngineConfig { buffer_kb: kb, ..EngineConfig::default() });
            e.execute_model(&ModelConfig::llama2_7b(), 128).total()
        };
        let t10 = mk(10);
        let t40 = mk(40);
        let t80 = mk(80);
        assert!(t40 <= t10, "40KB {t40} vs 10KB {t10}");
        assert!(t80 <= t40 * 1.001, "80KB {t80} vs 40KB {t40} (plateau)");
    }

    #[test]
    fn accelerator_contract_matches_inherent_api() {
        // the trait path must be pure plumbing over the inherent engine
        let trace = picachu_llm::model_trace(&ModelConfig::gpt2(), 64);
        let mut inherent = engine();
        let b = inherent.execute_trace(&trace);
        let mut hosted = engine();
        let r = Accelerator::execute_trace(&mut hosted, &trace);
        assert_eq!(r.breakdown, b, "trait dispatch must equal inherent dispatch");
        assert_eq!(r.backend, "PICACHU");
        assert_eq!(r.energy_nj, inherent.energy_nj(&b));
        assert!(hosted.area_mm2() > 0.0);
        assert!(r.is_sane());
    }
}
