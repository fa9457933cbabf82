//! Stage 2 — the dispatcher.
//!
//! Walks an operator trace and applies the §4.2.4 dataflow cases:
//! element-wise ops stream against the producing GEMM (Case 1), reductions
//! round-trip DRAM channel-by-channel under double buffering (Case 2) or
//! stay buffer-resident when they fit (Case 3). The same walk prices the
//! fault plan's service (healthy is the empty plan): SEC-DED re-fetches
//! before the first op, then the DMA stall retries of each Case-2 op's
//! transfers as the walk passes it, with the chunk geometry the op's round
//! trips are priced at. Compilation is injected as a closure: the engine
//! hands in the loops its degradation ladder chose.
//!
//! Accounting is exact: cycles accumulate in the integer [`PhaseTotals`]
//! (saturating, like every cycle computation upstream) and convert to the
//! floating-point `Breakdown` exactly once at the stage boundary — the
//! monolithic engine accumulated `u64` cycle counts directly into `f64`
//! fields, which silently rounds past 2⁵³ and made the unit mismatch easy
//! to reintroduce.

use crate::engine::EngineConfig;
use crate::error::PicachuError;
use crate::stages::compile::CompiledLoop;
use picachu_backend::Breakdown;
use picachu_faults::FaultPlan;
use picachu_llm::trace::TraceOp;
use picachu_nonlinear::{NonlinearOp, OpCategory};
use picachu_systolic::{DmaModel, SharedBuffer, SystolicArray};

/// Most detected-uncorrectable ECC words the engine re-fetches from DRAM per
/// request before declaring the SRAM unserviceable
/// ([`PicachuError::EccStorm`]). Eight uncorrectable words in one working
/// set is far past any transient-upset rate — at that point the macro is
/// failing, and re-fetching forever would hide it.
pub const ECC_MAX_DETECTED: u64 = 8;

/// Exact per-phase cycle totals, the dispatcher → accountant hand-off.
///
/// All four phases are integer cycle counts at the 1 GHz device clock;
/// [`PhaseTotals::breakdown`] is the single `u64 → f64` conversion point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Systolic-array GEMM cycles.
    pub gemm: u64,
    /// Exposed CGRA nonlinear cycles (after streaming overlap).
    pub nonlinear: u64,
    /// Exposed DMA/buffer cycles of the Case-2 round trips.
    pub data_movement: u64,
    /// Fault-service cycles: ECC scrubs/re-fetches and DMA stall retries.
    /// Zero on every healthy dispatch.
    pub overhead: u64,
}

impl PhaseTotals {
    /// Converts to the reporting `Breakdown` (exact below 2⁵³ cycles/phase).
    pub fn breakdown(self) -> Breakdown {
        Breakdown {
            gemm: self.gemm as f64,
            nonlinear: self.nonlinear as f64,
            data_movement: self.data_movement as f64,
            overhead: self.overhead as f64,
        }
    }

    /// Total cycles across all phases (saturating).
    pub fn total(self) -> u64 {
        self.gemm
            .saturating_add(self.nonlinear)
            .saturating_add(self.data_movement)
            .saturating_add(self.overhead)
    }
}

/// The dispatch stage: owns the substrate models (systolic array, Shared
/// Buffer, DMA) and walks traces over them.
#[derive(Debug)]
pub struct Dispatcher {
    systolic: SystolicArray,
    buffer: SharedBuffer,
    dma: DmaModel,
}

impl Dispatcher {
    /// Builds the substrate models for a configuration.
    pub fn new(config: &EngineConfig) -> Dispatcher {
        Dispatcher {
            systolic: SystolicArray::new(config.systolic_rows, config.systolic_cols),
            buffer: SharedBuffer {
                double_buffered: config.double_buffering,
                ..SharedBuffer::new_kb(config.buffer_kb)
            },
            dma: DmaModel::default(),
        }
    }

    /// The systolic array model in use.
    pub fn systolic(&self) -> &SystolicArray {
        &self.systolic
    }

    /// Executes a trace under `plan` with the §4.2.4 dataflow cases,
    /// returning exact per-phase cycle totals. `compile` supplies the loops
    /// for each nonlinear op.
    ///
    /// The plan's fault service lands in [`PhaseTotals::overhead`] only, so
    /// the other phases keep their healthy accounting. The SRAM flips are
    /// SEC-DED outcomes over the Shared Buffer, classified before any
    /// transfer: each detected-uncorrectable word re-fetches a 64-byte line
    /// from DRAM, up to [`ECC_MAX_DETECTED`]. Transient DMA stalls then pay
    /// the bounded retry ladder on the re-fetches and on every Case-2 fill
    /// and drain, numbered in that order. The transfers themselves are
    /// already priced in the healthy phases, so a Case-2 transfer adds only
    /// its stall and backoff cycles. A plan that flips no SRAM bit and
    /// stalls no transfer adds nothing. Deterministic in
    /// `(config, trace, plan)` and the loops.
    ///
    /// # Errors
    /// [`PicachuError::EccStorm`] past the re-fetch budget, or
    /// [`PicachuError::Dma`] when a transfer exhausts its retries.
    pub fn execute_trace<'a>(
        &self,
        config: &EngineConfig,
        trace: &[TraceOp],
        plan: &FaultPlan,
        compile: &mut dyn FnMut(NonlinearOp) -> &'a [CompiledLoop],
    ) -> Result<PhaseTotals, PicachuError> {
        let mut t = PhaseTotals::default();
        let mut xfer: u64 = 0; // DMA transfers, numbered in service order
        if !plan.sram_flips.is_empty() {
            let words = (config.buffer_kb * 1024 / 8) as u64;
            let ecc = plan.ecc.classify_sram(&plan.sram_flips, words);
            if ecc.detected > ECC_MAX_DETECTED {
                return Err(PicachuError::EccStorm {
                    detected: ecc.detected,
                    limit: ECC_MAX_DETECTED,
                });
            }
            t.overhead = ecc.overhead_cycles;
            for _ in 0..ecc.detected {
                let refetch = self.dma.transfer_cycles_faulted(64, xfer, &plan.dma)?;
                t.overhead = t.overhead.saturating_add(refetch.cycles);
                xfer += 1;
            }
        }
        // stall and backoff cycles of `transfers` Case-2 transfers of `bytes`
        let mut stalls = |transfers: u64, bytes: usize| -> Result<u64, PicachuError> {
            let mut cycles: u64 = 0;
            if !plan.dma.is_none() {
                for _ in 0..transfers {
                    let x = self.dma.transfer_cycles_faulted(bytes, xfer, &plan.dma)?;
                    cycles = cycles.saturating_add(x.overhead_cycles);
                    xfer += 1;
                }
            }
            Ok(cycles)
        };
        let mut pending_gemm: u64 = 0; // cycles of the producing GEMM
        let elem_bytes = config.format.byte_width();
        for op in trace {
            match *op {
                TraceOp::Gemm { m, k, n, count } => {
                    let c = self.systolic.gemm_cycles(m, k, n) * count as u64;
                    t.gemm = t.gemm.saturating_add(c);
                    pending_gemm = c;
                }
                TraceOp::Nonlinear { op, rows, channel } => {
                    let loops = compile(op);
                    let elems = (rows * channel) as u64;
                    let compute: u64 = loops.iter().map(|l| l.cycles(elems)).sum();
                    match op.category() {
                        OpCategory::ElementWise => {
                            // Case 1: stream against the producing GEMM; only
                            // the excess over the producer is exposed.
                            let exposed = if config.streaming {
                                compute.saturating_sub(pending_gemm)
                            } else {
                                compute
                            };
                            t.nonlinear = t.nonlinear.saturating_add(exposed);
                            pending_gemm = 0;
                        }
                        OpCategory::ReductionElementWise => {
                            let channel_bytes = channel * elem_bytes;
                            if op == NonlinearOp::Softmax {
                                // The first (max-reduction) loop overlaps the
                                // scores GEMM and is accounted row-by-row;
                                // the remaining loops are summed per-loop
                                // over the whole tensor. Both terms are
                                // computed directly — never as a
                                // `compute - overlap` difference: per-row
                                // accounting pays the prologue once per row,
                                // so for tall-skinny shapes the overlap term
                                // exceeds the whole-tensor total and the
                                // subtraction would wrap `u64`.
                                let first: u64 =
                                    loops[0].cycles(channel as u64).saturating_mul(rows as u64);
                                let rest: u64 = loops[1..]
                                    .iter()
                                    .map(|l| l.cycles(elems))
                                    .fold(0u64, |acc, c| acc.saturating_add(c));
                                let exposed_first = if config.streaming {
                                    first.saturating_sub(pending_gemm)
                                } else {
                                    first
                                };
                                pending_gemm = 0;
                                if self.buffer.channel_fits(channel, elem_bytes) {
                                    // Case 3: resident until statistics done.
                                    t.nonlinear =
                                        t.nonlinear.saturating_add(exposed_first + rest);
                                } else {
                                    // Case 2 on the remaining loops: one
                                    // fill and one drain per row.
                                    let total = self.buffer.pipelined_cycles(
                                        rows as u64,
                                        channel_bytes,
                                        ((rest as f64) / rows as f64).ceil() as u64,
                                        &self.dma,
                                    );
                                    t.overhead = t
                                        .overhead
                                        .saturating_add(stalls(2 * rows as u64, channel_bytes)?);
                                    t.nonlinear =
                                        t.nonlinear.saturating_add(exposed_first + rest);
                                    t.data_movement = t
                                        .data_movement
                                        .saturating_add(total.saturating_sub(rest));
                                }
                            } else if self.buffer.channel_fits(channel, elem_bytes) {
                                // Case 3 (DESIGN §5.5): the channel fits the
                                // working set, so the systolic output stays
                                // resident in the Shared Buffer across the
                                // statistics and apply passes and the result
                                // feeds the next GEMM in place — no DRAM
                                // round trip to expose.
                                t.nonlinear = t.nonlinear.saturating_add(compute);
                            } else {
                                // Case 2: channel exceeds the working set —
                                // chunked two-pass execution (statistics,
                                // then apply), each chunk a DMA round trip
                                // (one fill, one drain) under double
                                // buffering.
                                let working = self.buffer.working_bytes().max(1);
                                let chunks =
                                    rows as u64 * (channel_bytes.div_ceil(working)) as u64;
                                let per_chunk =
                                    ((2 * compute) as f64 / chunks as f64).ceil() as u64;
                                let total = self.buffer.pipelined_cycles(
                                    chunks,
                                    working,
                                    per_chunk,
                                    &self.dma,
                                );
                                t.nonlinear = t.nonlinear.saturating_add(2 * compute);
                                t.data_movement = t
                                    .data_movement
                                    .saturating_add(total.saturating_sub(2 * compute));
                                t.overhead =
                                    t.overhead.saturating_add(stalls(2 * chunks, working)?);
                            }
                        }
                    }
                }
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_totals_convert_exactly_and_saturate() {
        let t = PhaseTotals { gemm: 3, nonlinear: 5, data_movement: 7, overhead: 2 };
        let b = t.breakdown();
        assert_eq!((b.gemm, b.nonlinear, b.data_movement, b.overhead), (3.0, 5.0, 7.0, 2.0));
        assert_eq!(t.total(), 17);
        let max = PhaseTotals { gemm: u64::MAX, nonlinear: 1, ..PhaseTotals::default() };
        assert_eq!(max.total(), u64::MAX, "total must saturate, not wrap");
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let config = EngineConfig::default();
        let d = Dispatcher::new(&config);
        let t = d
            .execute_trace(&config, &[], &FaultPlan::none(), &mut |_| {
                unreachable!("no nonlinear ops")
            })
            .expect("an empty plan cannot fail");
        assert_eq!(t, PhaseTotals::default());
    }
}
