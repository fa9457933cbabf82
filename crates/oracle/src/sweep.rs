//! Seeded sweep driver: (op × shape × format × fabric geometry) grid.
//!
//! Cases are linearized in a deterministic order; a discrepancy's `case`
//! field is its position in that order, and setting
//! `PICACHU_ORACLE_REPLAY=<case>` re-runs exactly that one case. One
//! engine per (geometry, format) keeps the grid affordable: its compile
//! cache compiles each (op, geometry, format, unroll set) once, not every
//! shape.

use crate::report::{CaseCtx, OracleReport};
use crate::{numerics, timing};
use picachu::engine::{EngineConfig, PicachuEngine};
use picachu_nonlinear::NonlinearOp;
use picachu_num::DataFormat;

/// One fabric-geometry tier of the sweep: the formats exercised on it and
/// the unroll candidates the compiler may try (small fabrics get small
/// unroll sets — an 8× unrolled, 4-lane kernel cannot fit a 1×1 grid at a
/// sane II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepTier {
    /// CGRA (rows, cols).
    pub geometry: (usize, usize),
    /// Data formats run on this geometry.
    pub formats: Vec<DataFormat>,
    /// Unroll factors the engine may try.
    pub unroll_candidates: Vec<usize>,
}

/// The sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Operations under test.
    pub ops: Vec<NonlinearOp>,
    /// (rows, channel) tensor shapes for the timing oracle.
    pub shapes: Vec<(usize, usize)>,
    /// Geometry tiers.
    pub tiers: Vec<SweepTier>,
    /// Formats the numerics oracle runs (geometry-independent).
    pub numerics_formats: Vec<DataFormat>,
    /// Base engine/input seed.
    pub seed: u64,
    /// Taylor terms for the exp/sin chains.
    pub taylor_terms: usize,
}

impl SweepConfig {
    /// The full grid: ≥ 200 timing cases over three-class, degenerate and
    /// annealed scale-up (12×12/16×16) fabrics, plus every (op, format)
    /// numerics case.
    pub fn full() -> SweepConfig {
        let all = NonlinearOp::ALL.to_vec();
        SweepConfig {
            ops: all,
            shapes: vec![(1, 1), (1, 64), (16, 128), (128, 64)],
            tiers: vec![
                SweepTier {
                    geometry: (4, 4),
                    formats: DataFormat::ALL.to_vec(),
                    unroll_candidates: vec![1, 2, 4, 8],
                },
                SweepTier {
                    geometry: (3, 3),
                    formats: vec![DataFormat::Fp16],
                    unroll_candidates: vec![1, 2, 4],
                },
                SweepTier {
                    geometry: (2, 2),
                    formats: vec![DataFormat::Fp16, DataFormat::Int16],
                    unroll_candidates: vec![1, 2],
                },
                SweepTier {
                    geometry: (1, 1),
                    formats: vec![DataFormat::Fp16],
                    unroll_candidates: vec![1],
                },
                // scale-up tiers: above the 64-tile threshold the engine
                // takes the annealed Place→Route→Fold pipeline, so these
                // hold the exact cycle/II/NoC-hop identities through it
                SweepTier {
                    geometry: (12, 12),
                    formats: vec![DataFormat::Fp16],
                    unroll_candidates: vec![1, 2],
                },
                SweepTier {
                    geometry: (16, 16),
                    formats: vec![DataFormat::Fp16],
                    unroll_candidates: vec![1, 2],
                },
            ],
            numerics_formats: DataFormat::ALL.to_vec(),
            seed: 0x71CA,
            taylor_terms: 8,
        }
    }

    /// Small fixed-seed grid for the verify-script smoke gate.
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            ops: NonlinearOp::ALL.to_vec(),
            shapes: vec![(1, 64), (16, 128)],
            tiers: vec![SweepTier {
                geometry: (4, 4),
                formats: vec![DataFormat::Fp16, DataFormat::Int16],
                unroll_candidates: vec![1, 2, 4, 8],
            }],
            numerics_formats: vec![DataFormat::Fp16, DataFormat::Int16],
            seed: 0x71CA,
            taylor_terms: 8,
        }
    }

    /// Total number of cases the grid linearizes to.
    pub fn case_count(&self) -> usize {
        let timing: usize = self
            .tiers
            .iter()
            .map(|t| t.formats.len() * self.ops.len() * self.shapes.len())
            .sum();
        timing + self.numerics_formats.len() * self.ops.len()
    }
}

/// Runs the sweep. With `replay = Some(index)` only that case executes
/// (same engines, same seeds — bit-identical to its run inside the full
/// sweep); the differential test takes the index from
/// `PICACHU_ORACLE_REPLAY=<index>`.
pub fn run_sweep(cfg: &SweepConfig, replay: Option<usize>) -> OracleReport {
    let mut report = OracleReport::default();
    let mut index = 0usize;

    for tier in &cfg.tiers {
        for &format in &tier.formats {
            let mut engine = PicachuEngine::new(EngineConfig {
                cgra_rows: tier.geometry.0,
                cgra_cols: tier.geometry.1,
                format,
                taylor_terms: cfg.taylor_terms,
                unroll_candidates: tier.unroll_candidates.clone(),
                seed: cfg.seed,
                ..EngineConfig::default()
            });
            let mut engine_checked = false;
            for &op in &cfg.ops {
                for &(rows, channel) in &cfg.shapes {
                    let ctx = CaseCtx {
                        index,
                        op,
                        rows,
                        channel,
                        format,
                        cgra: tier.geometry,
                        seed: cfg.seed,
                    };
                    index += 1;
                    if replay.is_some_and(|r| r != ctx.index) {
                        continue;
                    }
                    if !engine_checked {
                        timing::check_energy(&mut report, ctx, &engine);
                        engine_checked = true;
                    }
                    timing::check_case(&mut report, ctx, &mut engine);
                    report.cases += 1;
                }
            }
        }
    }

    for &format in &cfg.numerics_formats {
        for &op in &cfg.ops {
            let ctx = CaseCtx {
                index,
                op,
                rows: 1,
                channel: numerics::NUMERICS_N,
                format,
                cgra: (0, 0),
                seed: cfg.seed,
            };
            index += 1;
            if replay.is_some_and(|r| r != ctx.index) {
                continue;
            }
            numerics::check_case(&mut report, ctx, cfg.taylor_terms);
            report.cases += 1;
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_is_big_enough() {
        assert!(SweepConfig::full().case_count() >= 200);
    }

    #[test]
    fn smoke_grid_is_small() {
        let c = SweepConfig::smoke().case_count();
        assert!((30..=100).contains(&c), "{c}");
    }
}
