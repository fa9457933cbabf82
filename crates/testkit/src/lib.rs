//! # picachu-testkit
//!
//! Hermetic, dependency-free testing and benchmarking toolkit for the
//! PICACHU workspace. The sandboxed build environment cannot reach
//! crates.io, so this crate replaces the three external dev-dependencies the
//! seed repo relied on:
//!
//! | external crate | in-tree replacement | module |
//! |----------------|--------------------|--------|
//! | `rand`         | SplitMix64-seeded Xoshiro256++ ([`TestRng`]) | [`rng`] |
//! | `proptest`     | [`prop_check!`] + greedy stream shrinking     | [`prop`] |
//! | `criterion`    | wall-clock harness, JSON lines, `--smoke`     | [`bench`] |
//!
//! It also holds the workspace's one JSON escaper ([`json`]), shared by
//! every JSON-lines writer.
//!
//! Everything is deterministic: a seed fully determines an RNG stream, a
//! `(cases, seed)` pair fully determines a property run, and a failing
//! property reports a **case seed** that [`prop::replay`] re-executes
//! verbatim. See `README.md` §"Building & testing (offline)".

pub mod bench;
pub mod json;
pub mod prop;
pub mod rng;

pub use bench::{black_box, Bench};
pub use prop::{Gen, PropError, PropResult};
pub use rng::{splitmix64, SplitMix64, TestRng};
