//! Mapping golden: every compiled loop's `(II, schedule_len, placements)`
//! hashed against a recorded constant, so any change to the mapper's
//! search — placement order, RNG draws, routing probes, the annealer —
//! that moves even one placement fails `cargo test`.
//!
//! The constants were recorded from the mapper before its inner loops were
//! made allocation-free; a deliberate change to what the mapper produces
//! must re-record them (and regenerate the `results/` artifacts, which
//! move with it).

use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::{map_dfg_with, pnr_report, Mapping, ResourceMask};
use picachu_compiler::transform::fuse_patterns;
use picachu_ir::kernels::kernel_library;
use picachu_testkit::splitmix64;

const SEED: u64 = 7;

/// Order-sensitive fold of a word sequence.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn push(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }

    fn mapping(&mut self, m: &Mapping) {
        self.push(u64::from(m.ii));
        self.push(u64::from(m.schedule_len));
        self.push(m.placements.len() as u64);
        for p in &m.placements {
            self.push(p.node.0 as u64);
            self.push(p.tile as u64);
            self.push(u64::from(p.time));
        }
    }
}

/// Maps every fused loop of the nine-op library and digests the mappings in
/// library order. With `report`, each loop's Route/Fold summary joins the
/// digest too.
fn digest_library(spec: &CgraSpec, mask: &ResourceMask, report: bool) -> u64 {
    let mut d = Digest::default();
    for k in kernel_library(4) {
        for l in &k.loops {
            let dfg = fuse_patterns(&l.dfg);
            let m = map_dfg_with(&dfg, spec, SEED, mask, None)
                .unwrap_or_else(|e| panic!("{} failed to map: {e}", l.label));
            d.mapping(&m);
            if report {
                let r = pnr_report(&dfg, spec, mask, &m)
                    .unwrap_or_else(|| panic!("{}: no P&R report", l.label));
                d.push(u64::from(r.congestion_free));
                d.push(r.routed_hops);
                d.push(r.folded_hops);
            }
        }
    }
    d.0
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: mapping digest {got:#018x} != golden {want:#018x}");
}

#[test]
fn library_on_healthy_4x4() {
    let spec = CgraSpec::picachu(4, 4);
    let got = digest_library(&spec, &ResourceMask::full(&spec), false);
    check("healthy 4x4", got, 0xbead_a92c_ccf8_0698);
}

#[test]
fn library_on_4x4_with_dead_tile() {
    let spec = CgraSpec::picachu(4, 4);
    let mask = ResourceMask::degraded(&spec, [5], []);
    check("4x4 dead_tile(5)", digest_library(&spec, &mask, false), 0xdfcf_dcad_7947_c334);
}

#[test]
fn library_on_4x4_with_dead_link_and_tile() {
    let spec = CgraSpec::picachu(4, 4);
    let mask = ResourceMask::degraded(&spec, [8], [(0, 1)]);
    let got = digest_library(&spec, &mask, false);
    check("4x4 dead_link(0,1)+dead_tile(8)", got, 0xa5e6_4ca9_f158_4b9a);
}

#[test]
fn annealed_16x16_mappings_and_reports() {
    let spec = CgraSpec::picachu(16, 16);
    let mask = ResourceMask::full(&spec);
    let got = digest_library(&spec, &mask, true);
    check("16x16 annealed", got, 0x2d32_d4b0_d453_b31e);
}
