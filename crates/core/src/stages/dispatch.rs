//! Stage 2 — the dispatcher.
//!
//! Walks an operator trace and applies the §4.2.4 dataflow cases:
//! element-wise ops stream against the producing GEMM (Case 1), reductions
//! round-trip DRAM channel-by-channel under double buffering (Case 2) or
//! stay buffer-resident when they fit (Case 3). Compilation is injected as
//! a closure, so the same walk serves the engine's run under a fault plan
//! (healthy is the empty plan) and its read-only warm estimate unchanged.
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

    /// Executes a trace with the §4.2.4 dataflow cases, returning exact
    /// per-phase cycle totals. `compile` supplies the loops for each
    /// nonlinear op (the ladder's answer under a plan, or the healthy view
    /// of a warm estimate — the walk does not care).
    pub fn execute_trace<'a>(
        &self,
        config: &EngineConfig,
        trace: &[TraceOp],
        compile: &mut dyn FnMut(NonlinearOp) -> &'a [CompiledLoop],
    ) -> PhaseTotals {
        let mut t = PhaseTotals::default();
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
                                    // Case 2 on the remaining loops.
                                    let total = self.buffer.pipelined_cycles(
                                        rows as u64,
                                        channel_bytes,
                                        ((rest as f64) / rows as f64).ceil() as u64,
                                        &self.dma,
                                    );
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
                                // under double buffering.
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
                            }
                        }
                    }
                }
            }
        }
        t
    }

    /// The fault-service overhead of executing `trace` under `plan`: the
    /// plan's SRAM flips are evaluated as SEC-DED outcomes over the Shared
    /// Buffer (detected-uncorrectable words re-fetch a 64-byte line from
    /// DRAM, up to [`ECC_MAX_DETECTED`]), and transient DMA stalls on the
    /// bulk Case-2 traffic pay the bounded retry ladder. The healthy
    /// breakdown already prices the transfers themselves, so only the
    /// stall/backoff/re-fetch cycles are returned — they land in
    /// [`PhaseTotals::overhead`]. Deterministic in `(config, trace, plan)`;
    /// zero, without walking the trace, when the plan flips no SRAM bit and
    /// stalls no transfer.
    ///
    /// # Errors
    /// [`PicachuError::EccStorm`] past the re-fetch budget, or
    /// [`PicachuError::Dma`] when a transfer exhausts its retries.
    pub fn fault_overhead(
        &self,
        config: &EngineConfig,
        trace: &[TraceOp],
        plan: &FaultPlan,
    ) -> Result<u64, PicachuError> {
        if plan.sram_flips.is_empty() && plan.dma.is_none() {
            return Ok(0);
        }
        // ECC over the Shared Buffer working set
        let words = (config.buffer_kb * 1024 / 8) as u64;
        let ecc = plan.ecc.classify_sram(&plan.sram_flips, words);
        if ecc.detected > ECC_MAX_DETECTED {
            return Err(PicachuError::EccStorm {
                detected: ecc.detected,
                limit: ECC_MAX_DETECTED,
            });
        }
        let mut overhead = ecc.overhead_cycles;
        let mut xfer: u64 = 0;
        for _ in 0..ecc.detected {
            // a detected-uncorrectable word re-fetches one 64-byte DRAM line,
            // itself subject to the transient-stall ladder
            let t = self.dma.transfer_cycles_faulted(64, xfer, &plan.dma)?;
            overhead += t.cycles;
            xfer += 1;
        }
        // transient stalls on the bulk Case-2 DMA traffic: these transfers
        // are already paid for in the healthy breakdown, so only the stall +
        // backoff overhead is added
        for (transfers, bytes) in self.case2_transfers(config, trace) {
            for _ in 0..transfers {
                let t = self.dma.transfer_cycles_faulted(bytes, xfer, &plan.dma)?;
                overhead += t.overhead_cycles;
                xfer += 1;
            }
        }
        Ok(overhead)
    }

    /// The Case-2 DMA transfer schedule of a trace: `(transfers, bytes)` per
    /// chunked reduction op, mirroring the chunk geometry `execute_trace`
    /// hands to [`SharedBuffer::pipelined_cycles`] (each chunk is one fill
    /// plus one drain). Pure geometry — compute never changes the transfer
    /// count.
    pub fn case2_transfers(&self, config: &EngineConfig, trace: &[TraceOp]) -> Vec<(u64, usize)> {
        let elem_bytes = config.format.byte_width();
        let mut out = Vec::new();
        for t in trace {
            let TraceOp::Nonlinear { op, rows, channel } = *t else {
                continue;
            };
            if op.category() != OpCategory::ReductionElementWise
                || self.buffer.channel_fits(channel, elem_bytes)
            {
                continue;
            }
            let channel_bytes = channel * elem_bytes;
            if op == NonlinearOp::Softmax {
                out.push((2 * rows as u64, channel_bytes));
            } else {
                let working = self.buffer.working_bytes().max(1);
                let chunks = rows as u64 * (channel_bytes.div_ceil(working)) as u64;
                out.push((2 * chunks, working));
            }
        }
        out
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
        let t = d.execute_trace(&config, &[], &mut |_| unreachable!("no nonlinear ops"));
        assert_eq!(t, PhaseTotals::default());
        assert!(d.case2_transfers(&config, &[]).is_empty());
    }
}
