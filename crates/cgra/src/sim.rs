//! Cycle-level CGRA simulator.
//!
//! Executes a [`CgraConfig`] the way the hardware would: every cycle each
//! tile consults its configuration slot; a scheduled operation fires only if
//! all operands have arrived (producer fire time + latency + mesh hops),
//! which dynamically re-verifies the static modulo schedule. The simulator
//! reports total cycles, per-tile activity, per-opcode activation counts and
//! NoC hop traffic — the activity factors the energy model consumes.

use crate::config::{CgraConfig, SlotAction};
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::ResourceMask;
use picachu_faults::{EccReport, FaultPlan};
use picachu_ir::dfg::Dfg;
use picachu_ir::opcode::Opcode;
use std::collections::HashMap;
use std::fmt;

/// Execution statistics from a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total cycles for the requested iterations.
    pub cycles: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Initiation interval the configuration ran at.
    pub ii: u64,
    /// Length of one full schedule pass (the prologue depth).
    pub schedule_len: u64,
    /// Busy cycles per tile.
    pub tile_busy: Vec<u64>,
    /// Number of firings per opcode.
    pub activations: HashMap<Opcode, u64>,
    /// Total operand hops through the mesh.
    pub noc_hops: u64,
    /// Loads + stores issued to the Shared Buffer.
    pub buffer_accesses: u64,
}

impl SimReport {
    /// Average fraction of tiles busy per cycle.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let busy: u64 = self.tile_busy.iter().sum();
        busy as f64 / (self.cycles as f64 * self.tile_busy.len() as f64)
    }

    /// Throughput in iterations per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.iterations as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sim: {} iters in {} cycles (util {:.1}%, {} hops, {} buffer accesses)",
            self.iterations,
            self.cycles,
            self.utilization() * 100.0,
            self.noc_hops,
            self.buffer_accesses
        )
    }
}

/// A fault the simulator detected while executing a configuration.
///
/// Every variant is a *typed* rejection — the simulator refuses to pretend a
/// broken configuration ran, but it never takes the process down for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFault {
    /// A configured slot sits on a PE the fault plan killed.
    DeadTileInUse {
        /// The dead tile with a configured slot.
        tile: usize,
    },
    /// An operand has no route on the alive fabric.
    Unroutable {
        /// Producing tile.
        from: usize,
        /// Consuming tile.
        to: usize,
    },
    /// An operand would arrive after its consumer fires: the static schedule
    /// is invalid for this fabric (a compiler bug, or a mapping compiled for
    /// a different fault plan).
    DataflowViolation {
        /// The late-fed consumer node id.
        node: usize,
        /// Cycle the consumer fires.
        fires_at: u64,
        /// Cycle the operand lands.
        arrives_at: u64,
    },
    /// Some DFG node never fired — the configuration is incomplete.
    MissingFirings {
        /// Firings counted.
        fired: u64,
        /// Firings expected (`nodes × iterations`).
        expected: u64,
    },
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFault::DeadTileInUse { tile } => {
                write!(f, "configuration uses dead tile {tile}")
            }
            SimFault::Unroutable { from, to } => {
                write!(f, "no alive route from tile {from} to tile {to}")
            }
            SimFault::DataflowViolation { node, fires_at, arrives_at } => write!(
                f,
                "node {node} fires at {fires_at} but an operand arrives at {arrives_at}"
            ),
            SimFault::MissingFirings { fired, expected } => {
                write!(f, "{fired} firings counted, {expected} expected")
            }
        }
    }
}

impl std::error::Error for SimFault {}

/// Result of a fault-injected run: the pipeline statistics plus the ECC
/// activity on the configuration SRAM. `report.cycles` stays the *pure*
/// pipeline count (`schedule_len + (iters−1)·II` — the accounting identity
/// the oracle checks); the one-time ECC overhead is reported separately for
/// the engine to add to its end-to-end latency.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedRun {
    /// Pipeline statistics (identical identities as the healthy run).
    pub report: SimReport,
    /// ECC outcomes over the configuration SRAM under the fault plan.
    pub ecc: EccReport,
}

/// The simulator: drives one configured fabric in steady state.
#[derive(Debug)]
pub struct CgraSimulator<'a> {
    spec: &'a CgraSpec,
    dfg: &'a Dfg,
    config: &'a CgraConfig,
}

impl<'a> CgraSimulator<'a> {
    /// Creates a simulator over a fabric, kernel DFG and configuration.
    pub fn new(spec: &'a CgraSpec, dfg: &'a Dfg, config: &'a CgraConfig) -> CgraSimulator<'a> {
        CgraSimulator { spec, dfg, config }
    }

    /// Runs `iterations` loop iterations and reports statistics.
    ///
    /// # Panics
    /// Panics if the configuration violates dataflow (an operand would not
    /// have arrived when its consumer fires) — that would be a compiler bug,
    /// and the simulator exists to catch it. Serve paths that must stay up
    /// use [`CgraSimulator::try_run`] instead.
    pub fn run(&self, iterations: u64) -> SimReport {
        match self.try_run(iterations, None) {
            Ok(r) => r,
            Err(fault) => panic!("{fault}"),
        }
    }

    /// Runs under a fault plan: operand distances come from the alive-fabric
    /// routing of `plan`'s dead tiles/links, a configured slot on a dead PE
    /// is rejected, and the plan's SRAM flips are evaluated as ECC outcomes
    /// over the configuration memory
    /// (`config.size_bytes() / 8` words).
    ///
    /// # Errors
    /// Any [`SimFault`]: the configuration is unusable on this degraded
    /// fabric (compile it with the matching `ResourceMask` first).
    pub fn run_faulted(&self, iterations: u64, plan: &FaultPlan) -> Result<FaultedRun, SimFault> {
        let mask = ResourceMask::degraded(
            self.spec,
            plan.dead_tiles.iter().copied(),
            plan.dead_links.iter().copied(),
        );
        for (tile, prog) in self.config.tiles.iter().enumerate() {
            let configured = prog
                .slots
                .iter()
                .any(|s| matches!(s, SlotAction::Execute { .. }));
            if configured && !mask.tile_alive(tile) {
                return Err(SimFault::DeadTileInUse { tile });
            }
        }
        let report = self.try_run(iterations, Some(&mask))?;
        let ecc = plan
            .ecc
            .classify_sram(&plan.sram_flips, (self.config.size_bytes() / 8) as u64);
        Ok(FaultedRun { report, ecc })
    }

    /// The non-panicking core: verifies the schedule dynamically and
    /// accumulates statistics, using `mask`'s alive-fabric hop distances
    /// when given (detours around dead resources) and plain Manhattan
    /// distance otherwise.
    ///
    /// # Errors
    /// A [`SimFault`] describing the first violation found.
    pub fn try_run(
        &self,
        iterations: u64,
        mask: Option<&ResourceMask>,
    ) -> Result<SimReport, SimFault> {
        let ii = self.config.ii as u64;
        let mut report = SimReport {
            cycles: 0,
            iterations,
            ii,
            schedule_len: self.config.schedule_len as u64,
            tile_busy: vec![0; self.spec.len()],
            activations: HashMap::new(),
            noc_hops: 0,
            buffer_accesses: 0,
        };
        if iterations == 0 {
            return Ok(report);
        }
        let hops_of = |from: usize, to: usize| -> Result<u64, SimFault> {
            match mask {
                Some(m) => m
                    .hops(from, to)
                    .map(u64::from)
                    .ok_or(SimFault::Unroutable { from, to }),
                None => Ok(self.spec.hops(from, to) as u64),
            }
        };

        // Representative probe iterations: steady state repeats with period
        // II, so the first and last iteration suffice to catch wraparound
        // bugs. A single-iteration run has only one distinct probe — the old
        // `[0, iterations - 1]` pair verified iteration 0 twice.
        let probes = if iterations == 1 {
            vec![0u64]
        } else {
            vec![0u64, iterations - 1]
        };

        // fire_time(node, iter) = first_time + iter * II — the modulo
        // schedule. Walk every firing in time order per tile and verify
        // operand arrival dynamically.
        for tile in 0..self.spec.len() {
            for slot in &self.config.tiles[tile].slots {
                let SlotAction::Execute { node, op, operands, first_time } = slot else {
                    continue;
                };
                // verify operand arrival at each probe iteration.
                for &iter in &probes {
                    let t_fire = *first_time as u64 + iter * ii;
                    for o in operands {
                        // the producing firing is `distance` iterations back
                        if o.distance as u64 > iter {
                            continue; // fed by loop prologue / initial value
                        }
                        let prod_iter = iter - o.distance as u64;
                        let arrive =
                            o.ready_at as u64 + prod_iter * ii + hops_of(o.tile, tile)?;
                        if arrive > t_fire {
                            return Err(SimFault::DataflowViolation {
                                node: node.0,
                                fires_at: t_fire,
                                arrives_at: arrive,
                            });
                        }
                    }
                }
                // accumulate statistics over all iterations
                report.tile_busy[tile] += iterations;
                *report.activations.entry(*op).or_insert(0) += iterations;
                if op.is_memory() {
                    report.buffer_accesses += iterations;
                }
                for o in operands {
                    report.noc_hops += hops_of(o.tile, tile)? * iterations;
                }
            }
        }

        report.cycles = self.config.schedule_len as u64 + (iterations - 1) * ii;
        // sanity: every node fired
        let fired: u64 = report.activations.values().sum();
        let expected = self.dfg.len() as u64 * iterations;
        if fired != expected {
            return Err(SimFault::MissingFirings { fired, expected });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_compiler::mapper::map_dfg;
    use picachu_compiler::transform::{fuse_patterns, lower_special_ops, unroll, vectorize};
    use picachu_ir::kernels::{kernel_library, relu_kernel, softmax_kernel};

    fn simulate(dfg: &Dfg, spec: &CgraSpec, iters: u64) -> SimReport {
        let m = map_dfg(dfg, spec, 17).unwrap();
        let cfg = CgraConfig::from_mapping(dfg, &m, spec);
        CgraSimulator::new(spec, dfg, &cfg).run(iters)
    }

    #[test]
    fn all_kernels_simulate_consistently() {
        let spec = CgraSpec::picachu(4, 4);
        for k in kernel_library(4) {
            for l in &k.loops {
                let d = fuse_patterns(&l.dfg);
                let r = simulate(&d, &spec, 256);
                assert_eq!(r.iterations, 256, "{}", l.label);
                assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
            }
        }
    }

    #[test]
    fn baseline_kernels_simulate_too() {
        let spec = CgraSpec::homogeneous(4, 4);
        for k in kernel_library(4) {
            for l in &k.loops {
                let d = lower_special_ops(&l.dfg);
                let r = simulate(&d, &spec, 64);
                assert!(r.cycles > 0, "{}", l.label);
            }
        }
    }

    #[test]
    fn cycles_scale_linearly_with_iterations() {
        let spec = CgraSpec::picachu(4, 4);
        let d = fuse_patterns(&relu_kernel().loops[0].dfg);
        let m = map_dfg(&d, &spec, 17).unwrap();
        let cfg = CgraConfig::from_mapping(&d, &m, &spec);
        let sim = CgraSimulator::new(&spec, &d, &cfg);
        let r1 = sim.run(100);
        let r2 = sim.run(200);
        assert_eq!(r2.cycles - r1.cycles, 100 * m.ii as u64);
    }

    #[test]
    fn memory_activations_counted() {
        let spec = CgraSpec::picachu(4, 4);
        let d = fuse_patterns(&relu_kernel().loops[0].dfg);
        let r = simulate(&d, &spec, 50);
        // relu: 1 load + 1 store per iteration
        assert_eq!(r.buffer_accesses, 100);
    }

    #[test]
    fn unrolled_throughput_scales() {
        let spec = CgraSpec::picachu(4, 4);
        let base = fuse_patterns(&relu_kernel().loops[0].dfg);
        let u4 = fuse_patterns(&unroll(&relu_kernel().loops[0].dfg, 4));
        let r1 = simulate(&base, &spec, 1000);
        let r4 = simulate(&u4, &spec, 250); // 250 iters x 4 elements
        // same element count, UF4 must be faster per element
        assert!(
            r4.cycles < r1.cycles,
            "UF4 {} cycles !< UF1 {} cycles",
            r4.cycles,
            r1.cycles
        );
    }

    #[test]
    fn vectorized_kernels_simulate() {
        let spec = CgraSpec::picachu(4, 4);
        let k = softmax_kernel(4);
        let v = vectorize(&fuse_patterns(&k.loops[2].dfg), 4);
        let r = simulate(&v.dfg, &spec, 128);
        assert!(r.cycles > 0);
        // 4 divisions per iteration after lane splitting
        assert_eq!(r.activations[&Opcode::Div], 4 * 128);
    }

    #[test]
    fn zero_iterations() {
        let spec = CgraSpec::picachu(4, 4);
        let d = fuse_patterns(&relu_kernel().loops[0].dfg);
        let m = map_dfg(&d, &spec, 17).unwrap();
        let cfg = CgraConfig::from_mapping(&d, &m, &spec);
        let r = CgraSimulator::new(&spec, &d, &cfg).run(0);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn single_iteration_probes_once() {
        let spec = CgraSpec::picachu(4, 4);
        let d = fuse_patterns(&relu_kernel().loops[0].dfg);
        let m = map_dfg(&d, &spec, 17).unwrap();
        let cfg = CgraConfig::from_mapping(&d, &m, &spec);
        let r = CgraSimulator::new(&spec, &d, &cfg).run(1);
        // one iteration = exactly one schedule pass: the prologue depth
        assert_eq!(r.cycles, cfg.schedule_len as u64);
        assert_eq!(r.iterations, 1);
        assert_eq!(r.ii, m.ii as u64);
        assert_eq!(r.schedule_len, cfg.schedule_len as u64);
        // per-node stats count each firing exactly once
        let fired: u64 = r.activations.values().sum();
        assert_eq!(fired, d.len() as u64);
        assert_eq!(r.buffer_accesses, 2); // relu: 1 load + 1 store
    }

    #[test]
    fn noc_hops_positive_for_multi_tile_kernels() {
        let spec = CgraSpec::picachu(4, 4);
        let k = softmax_kernel(4);
        let d = fuse_patterns(&k.loops[1].dfg);
        let r = simulate(&d, &spec, 10);
        assert!(r.noc_hops > 0, "a 15-node kernel must route between tiles");
    }

    #[test]
    fn run_faulted_with_empty_plan_matches_healthy_run() {
        let spec = CgraSpec::picachu(4, 4);
        let d = fuse_patterns(&relu_kernel().loops[0].dfg);
        let m = map_dfg(&d, &spec, 17).unwrap();
        let cfg = CgraConfig::from_mapping(&d, &m, &spec);
        let sim = CgraSimulator::new(&spec, &d, &cfg);
        let healthy = sim.run(100);
        let faulted = sim.run_faulted(100, &FaultPlan::none()).unwrap();
        assert_eq!(faulted.report, healthy);
        assert_eq!(faulted.ecc, EccReport::default());
    }

    #[test]
    fn degraded_mapping_simulates_under_matching_plan() {
        use picachu_compiler::mapper::map_dfg_with;
        let spec = CgraSpec::picachu(4, 4);
        let d = fuse_patterns(&relu_kernel().loops[0].dfg);
        let plan = FaultPlan::dead_tile(5).with_dead_link(0, 1);
        let mask = ResourceMask::degraded(
            &spec,
            plan.dead_tiles.iter().copied(),
            plan.dead_links.iter().copied(),
        );
        let m = map_dfg_with(&d, &spec, 17, &mask, None).unwrap();
        let cfg = CgraConfig::from_mapping(&d, &m, &spec);
        let run = CgraSimulator::new(&spec, &d, &cfg)
            .run_faulted(64, &plan)
            .unwrap();
        // degraded runs keep the pure pipeline identity
        assert_eq!(
            run.report.cycles,
            cfg.schedule_len as u64 + 63 * m.ii as u64
        );
        let fired: u64 = run.report.activations.values().sum();
        assert_eq!(fired, d.len() as u64 * 64);
    }

    #[test]
    fn healthy_mapping_on_dead_tile_is_rejected_typed() {
        let spec = CgraSpec::picachu(4, 4);
        let d = fuse_patterns(&relu_kernel().loops[0].dfg);
        let m = map_dfg(&d, &spec, 17).unwrap();
        let cfg = CgraConfig::from_mapping(&d, &m, &spec);
        let sim = CgraSimulator::new(&spec, &d, &cfg);
        // kill every tile the mapping uses in turn: each must be rejected
        // with the dead-tile fault, never a panic
        let mut rejected = 0;
        for p in &m.placements {
            let err = sim.run_faulted(16, &FaultPlan::dead_tile(p.tile)).unwrap_err();
            assert_eq!(err, SimFault::DeadTileInUse { tile: p.tile });
            rejected += 1;
        }
        assert!(rejected > 0);
    }

    #[test]
    fn ecc_outcomes_reported_for_config_sram() {
        let spec = CgraSpec::picachu(4, 4);
        let d = fuse_patterns(&relu_kernel().loops[0].dfg);
        let m = map_dfg(&d, &spec, 17).unwrap();
        let cfg = CgraConfig::from_mapping(&d, &m, &spec);
        let sim = CgraSimulator::new(&spec, &d, &cfg);
        let plan = FaultPlan::none()
            .with_sram_flip(0, 1)
            .with_sram_flip(1, 2)
            .with_sram_flip(2, 3);
        let run = sim.run_faulted(10, &plan).unwrap();
        assert_eq!(run.ecc.corrected, 1);
        assert_eq!(run.ecc.detected, 1);
        assert_eq!(run.ecc.silent, 1);
        assert!(run.ecc.overhead_cycles > 0);
        // ECC overhead never leaks into the pipeline identity
        assert_eq!(
            run.report.cycles,
            cfg.schedule_len as u64 + 9 * m.ii as u64
        );
    }
}
