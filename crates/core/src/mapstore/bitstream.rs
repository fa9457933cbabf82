//! Versioned bitstream-like export of placement + routes (ESL-CSV
//! interchange), and the on-disk format of the [`mapstore`](crate::mapstore).
//!
//! The configuration stream of a real CGRA encodes, per tile and per II
//! slot, both the compute opcode and the switchbox routes, which the staged
//! Place→Route→Fold pipeline computes explicitly. This module exports that
//! full picture as a versioned CSV text — the ESL-style interchange format
//! downstream RTL tooling can consume — and imports it back into the
//! process-wide [`compile_cache`](crate::compile_cache) so a fresh process
//! can serve a fabric configuration without ever invoking the mapper. The
//! mapping store persists exactly this text, one file per key.
//!
//! The text is a pure function of `(CompileKey, loops)`: routes come from
//! the deterministic Route pass replay, so exporting on one machine and
//! importing on another reproduces bit-identical execution.
//!
//! Format (one record per line, comma-separated):
//!
//! ```text
//! picachu-bitstream,1
//! key,<op>,<rows>,<cols>,<format>,<taylor>,<seed>,<universal>,<incremental>,<uf0|uf1|..>,<dead_tiles a|b>,<dead_links a-b|c-d>
//! loop,<label>,<kind>,<uf>,<vf>,<ii>,<schedule_len>
//! place,<node>,<tile>,<time>
//! route,<from>,<to>,<depart>,<tile0|tile1|..>,<fold flags as 0/1>
//! pnr,<achieved_ii>,<critical_path>,<area>,<chan_util>,<routed_hops>,<folded_hops>,<congestion_free>
//! ```
//!
//! `place`/`route` rows belong to the most recent `loop` row; every loop
//! block ends with its `pnr` summary row. Import fails closed. It rebuilds
//! the kernel from the key (kernel → unroll → fuse → vectorize, exactly the
//! compile pipeline), checks every loop block and placement against it
//! before the Route pass runs, and accepts the text only if re-exporting the
//! parsed entry reproduces it byte for byte. The derived `route` and `pnr`
//! rows are therefore re-checked, not trusted.

use crate::compile_cache::{self, CompileKey};
use crate::engine::CompiledLoop;
use crate::stages::compile::kernel_for;
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::{
    ii_ceiling, pnr_report_from_routes, route_mapping, schedule_len_of, Mapping, Placement,
    ResourceMask,
};
use picachu_compiler::transform::{fuse_patterns, unroll, vectorize};
use picachu_ir::dfg::{Dfg, NodeId};
use picachu_ir::kernels::{KernelLoop, LoopClass};
use picachu_nonlinear::{LoopKind, NonlinearOp};
use picachu_num::DataFormat;
use std::fmt::Write as _;

/// Bitstream format version this build reads and writes.
pub const BITSTREAM_VERSION: u64 = 1;

/// Latest schedule time a placement may carry. Real schedules end within a
/// few hundred cycles; the cap keeps every `time + latency + hops` sum of
/// the timing checks far from `u32` overflow.
const MAX_TIME: u32 = u32::MAX / 2;

fn format_name(f: DataFormat) -> &'static str {
    match f {
        DataFormat::Fp32 => "fp32",
        DataFormat::Fp16 => "fp16",
        DataFormat::Int32 => "int32",
        DataFormat::Int16 => "int16",
    }
}

fn parse_format(s: &str) -> Option<DataFormat> {
    match s {
        "fp32" => Some(DataFormat::Fp32),
        "fp16" => Some(DataFormat::Fp16),
        "int32" => Some(DataFormat::Int32),
        "int16" => Some(DataFormat::Int16),
        _ => None,
    }
}

fn kind_of(class: LoopClass) -> LoopKind {
    match class {
        LoopClass::Reduction => LoopKind::Reduction,
        LoopClass::ElementWise => LoopKind::ElementWise,
    }
}

/// The fabric a key's mappings target.
fn spec_of(key: &CompileKey) -> CgraSpec {
    if key.universal {
        CgraSpec::universal(key.cgra_rows, key.cgra_cols)
    } else {
        CgraSpec::picachu(key.cgra_rows, key.cgra_cols)
    }
}

/// The resource mask a key's mappings were compiled under.
fn mask_of(key: &CompileKey, spec: &CgraSpec) -> ResourceMask {
    if key.dead_tiles.is_empty() && key.dead_links.is_empty() {
        ResourceMask::full(spec)
    } else {
        ResourceMask::degraded(
            spec,
            key.dead_tiles.iter().copied(),
            key.dead_links.iter().copied(),
        )
    }
}

/// The `key` row of a key's bitstream, without its newline. The mapping
/// store names each entry's file after a hash of this row.
pub(crate) fn key_row(key: &CompileKey) -> String {
    let list = |items: Vec<String>| items.join("|");
    format!(
        "key,{},{},{},{},{},{},{},{},{},{},{}",
        key.op.name(),
        key.cgra_rows,
        key.cgra_cols,
        format_name(key.format),
        key.taylor_terms,
        key.seed,
        key.universal,
        key.incremental,
        list(key.unroll_candidates.iter().map(usize::to_string).collect()),
        list(key.dead_tiles.iter().map(usize::to_string).collect()),
        list(key.dead_links.iter().map(|(a, b)| format!("{a}-{b}")).collect()),
    )
}

/// Checks one compiled loop against the kernel loop it claims to implement
/// and returns the lowered DFG (unroll → fuse → vectorize) its placements
/// cover. Runs before the Route pass, so no index or time an edited entry
/// carries can reach it out of range.
fn check_loop(
    key: &CompileKey,
    spec: &CgraSpec,
    mask: &ResourceMask,
    kl: &KernelLoop,
    l: &CompiledLoop,
) -> Result<Dfg, String> {
    let name = &l.label;
    if l.label != kl.label || l.kind != kind_of(kl.class) {
        return Err(format!("loop {name:?} ({:?}) is not the kernel's {:?}", l.kind, kl.label));
    }
    if !key.unroll_candidates.contains(&l.uf) {
        return Err(format!("{name}: uf {} is not an unroll candidate", l.uf));
    }
    if l.vf != key.format.vector_factor() {
        return Err(format!("{name}: vf {} does not match the format", l.vf));
    }
    let mut dfg = fuse_patterns(&unroll(&kl.dfg, l.uf));
    if l.vf > 1 {
        dfg = vectorize(&dfg, l.vf).dfg;
    }
    let m = &l.mapping;
    if m.ii == 0 || m.ii > ii_ceiling(&dfg) {
        return Err(format!("{name}: ii {} is outside 1..={}", m.ii, ii_ceiling(&dfg)));
    }
    if m.placements.len() != dfg.len() {
        return Err(format!(
            "{name}: {} placements for a {}-node DFG",
            m.placements.len(),
            dfg.len()
        ));
    }
    let ii = m.ii as usize;
    let mut busy = vec![false; spec.len() * ii];
    for (i, (p, node)) in m.placements.iter().zip(dfg.nodes()).enumerate() {
        if p.node.0 != i || p.tile >= spec.len() || p.time > MAX_TIME {
            return Err(format!("{name}: placement {i} is {p:?}"));
        }
        if !mask.tile_alive(p.tile) || !spec.tile_supports(p.tile, node.op) {
            return Err(format!("{name}: tile {} cannot run node {i}", p.tile));
        }
        if std::mem::replace(&mut busy[p.tile * ii + p.time as usize % ii], true) {
            return Err(format!("{name}: node {i} shares a compute slot"));
        }
    }
    // loop-carried operands must land before their consumer's issue in the
    // iteration `distance` later (the Route pass checks distance-0 edges)
    for node in dfg.nodes() {
        for e in node.inputs.iter().filter(|e| e.distance > 0) {
            let (pu, pv) = (m.placements[e.from.0], m.placements[node.id.0]);
            let lat = dfg.nodes()[e.from.0].op.latency();
            let slot = u64::from(pv.time) + u64::from(e.distance) * u64::from(m.ii);
            match mask.hops(spec, pu.tile, pv.tile) {
                Some(h) if u64::from(pu.time + lat + h) <= slot => {}
                _ => {
                    let (u, v) = (e.from.0, node.id.0);
                    return Err(format!("{name}: recurrence {u} -> {v} misses its slot"));
                }
            }
        }
    }
    match schedule_len_of(&dfg, spec, mask, &m.placements) {
        Some(len) if len == m.schedule_len => Ok(dfg),
        len => Err(format!("{name}: schedule_len {}, placements give {len:?}", m.schedule_len)),
    }
}

/// Exports one compile-cache entry as bitstream text: the key, every loop's
/// placements, the Route+Fold pass routes, and the per-loop P&R report.
///
/// # Errors
/// A message when the loops do not belong to this key: the wrong loop
/// count or labels, an unroll or vector factor the key cannot produce, or
/// placements that are malformed or do not route under the key's mask.
pub fn export_bitstream(key: &CompileKey, loops: &[CompiledLoop]) -> Result<String, String> {
    if key.cgra_rows == 0 || key.cgra_cols == 0 {
        return Err(format!("empty {}x{} fabric", key.cgra_rows, key.cgra_cols));
    }
    let kernel = kernel_for(key.op, key.taylor_terms);
    if loops.len() != kernel.loops.len() {
        return Err(format!(
            "{} loops for the {}-loop {} kernel",
            loops.len(),
            kernel.loops.len(),
            key.op.name()
        ));
    }
    let spec = spec_of(key);
    let mask = mask_of(key, &spec);
    let mut out = format!("picachu-bitstream,{BITSTREAM_VERSION}\n{}\n", key_row(key));
    for (l, kl) in loops.iter().zip(&kernel.loops) {
        let dfg = check_loop(key, &spec, &mask, kl, l)?;
        let kind = match l.kind {
            LoopKind::Reduction => "reduction",
            LoopKind::ElementWise => "elementwise",
        };
        let _ = writeln!(
            out,
            "loop,{},{kind},{},{},{},{}",
            l.label, l.uf, l.vf, l.mapping.ii, l.mapping.schedule_len
        );
        for p in &l.mapping.placements {
            let _ = writeln!(out, "place,{},{},{}", p.node.0, p.tile, p.time);
        }
        let routes = route_mapping(&dfg, &spec, &mask, l.mapping.ii, &l.mapping.placements)
            .ok_or_else(|| format!("{}: placements do not route under the mask", l.label))?;
        for e in &routes.edges {
            let tiles =
                e.tiles.iter().map(|t| t.to_string()).collect::<Vec<_>>().join("|");
            let folded: String =
                e.folded.iter().map(|&f| if f { '1' } else { '0' }).collect();
            let _ = writeln!(out, "route,{},{},{},{tiles},{folded}", e.from.0, e.to.0, e.depart);
        }
        let report = pnr_report_from_routes(&spec, &mask, &l.mapping, &routes);
        let _ = writeln!(
            out,
            "pnr,{},{},{:.6},{:.6},{},{},{}",
            report.achieved_ii,
            report.critical_path,
            report.area_used,
            report.channel_utilization,
            report.routed_hops,
            report.folded_hops,
            report.congestion_free
        );
    }
    Ok(out)
}

fn split_list(s: &str) -> Vec<&str> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split('|').collect()
    }
}

/// Parses bitstream text back into a compile-cache entry. Fails closed: the
/// loop blocks must match the key's kernel, every placement must be legal
/// on the key's fabric and mask, and re-exporting the parsed entry (which
/// re-runs the Route pass) must reproduce `text` byte for byte. Never
/// panics on malformed input. The key row sets how much work import does
/// (it builds the key's fabric and kernel), so the mapping store compares
/// that row with the requested key before importing.
///
/// # Errors
/// A message naming the offending line or loop.
pub fn import_bitstream(text: &str) -> Result<(CompileKey, Vec<CompiledLoop>), String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty bitstream")?;
    let version = header
        .strip_prefix("picachu-bitstream,")
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| format!("bad header {header:?}"))?;
    if version != BITSTREAM_VERSION {
        return Err(format!("unsupported bitstream version {version}"));
    }
    let (_, key_line) = lines.next().ok_or("missing key row")?;
    let kf: Vec<&str> = key_line.split(',').collect();
    if kf.len() != 12 || kf[0] != "key" {
        return Err(format!("bad key row {key_line:?}"));
    }
    let op = *NonlinearOp::ALL
        .iter()
        .find(|o| o.name() == kf[1])
        .ok_or_else(|| format!("unknown op {:?}", kf[1]))?;
    let parse_usize =
        |s: &str| s.parse::<usize>().map_err(|_| format!("bad number {s:?}"));
    let parse_u32 = |s: &str| s.parse::<u32>().map_err(|_| format!("bad number {s:?}"));
    let key = CompileKey {
        op,
        cgra_rows: parse_usize(kf[2])?,
        cgra_cols: parse_usize(kf[3])?,
        format: parse_format(kf[4]).ok_or_else(|| format!("bad format {:?}", kf[4]))?,
        taylor_terms: parse_usize(kf[5])?,
        seed: kf[6].parse::<u64>().map_err(|_| format!("bad seed {:?}", kf[6]))?,
        universal: kf[7].parse::<bool>().map_err(|_| format!("bad flag {:?}", kf[7]))?,
        incremental: kf[8].parse::<bool>().map_err(|_| format!("bad flag {:?}", kf[8]))?,
        unroll_candidates: split_list(kf[9])
            .iter()
            .map(|s| parse_usize(s))
            .collect::<Result<_, _>>()?,
        dead_tiles: split_list(kf[10])
            .iter()
            .map(|s| parse_usize(s))
            .collect::<Result<_, _>>()?,
        dead_links: split_list(kf[11])
            .iter()
            .map(|s| {
                let (a, b) = s.split_once('-').ok_or_else(|| format!("bad link {s:?}"))?;
                Ok::<_, String>((parse_usize(a)?, parse_usize(b)?))
            })
            .collect::<Result<_, _>>()?,
    };

    let mut loops: Vec<CompiledLoop> = Vec::new();
    for (ln, line) in lines {
        let f: Vec<&str> = line.split(',').collect();
        let row = match f.first().copied() {
            Some("loop") if f.len() == 7 => {
                let kind = match f[2] {
                    "reduction" => LoopKind::Reduction,
                    "elementwise" => LoopKind::ElementWise,
                    k => return Err(format!("line {}: bad loop kind {k:?}", ln + 1)),
                };
                loops.push(CompiledLoop {
                    label: f[1].to_string(),
                    kind,
                    uf: parse_usize(f[3])?,
                    vf: parse_usize(f[4])?,
                    mapping: Mapping {
                        ii: parse_u32(f[5])?,
                        placements: Vec::new(),
                        schedule_len: parse_u32(f[6])?,
                    },
                });
                continue;
            }
            Some("place") if f.len() == 4 => Some(Placement {
                node: NodeId(parse_usize(f[1])?),
                tile: parse_usize(f[2])?,
                time: parse_u32(f[3])?,
            }),
            // derived rows: their content is checked by the re-export below
            Some("route") if f.len() == 6 => None,
            Some("pnr") if f.len() == 8 => None,
            _ => return Err(format!("line {}: unrecognized row {line:?}", ln + 1)),
        };
        let l = loops
            .last_mut()
            .ok_or_else(|| format!("line {}: {} row before any loop", ln + 1, f[0]))?;
        l.mapping.placements.extend(row);
    }

    let canonical = export_bitstream(&key, &loops)?;
    if canonical != text {
        return Err("text differs from the canonical export of its own entry".to_string());
    }
    Ok((key, loops))
}

/// [`import_bitstream`] + publish into the process-wide compile cache: a
/// fresh process that installs a bitstream serves the fabric configuration
/// with zero mapper invocations.
///
/// # Errors
/// Everything [`import_bitstream`] rejects.
pub fn install_bitstream(text: &str) -> Result<CompileKey, String> {
    let (key, loops) = import_bitstream(text)?;
    compile_cache::publish(key.clone(), loops);
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_compiler::mapper::map_dfg_with;

    fn entry_for(op: NonlinearOp) -> (CompileKey, Vec<CompiledLoop>) {
        let key = CompileKey {
            op,
            cgra_rows: 4,
            cgra_cols: 4,
            format: DataFormat::Fp16,
            taylor_terms: 4,
            unroll_candidates: vec![1, 2],
            seed: 0x71CA,
            dead_tiles: vec![],
            dead_links: vec![],
            universal: false,
            incremental: false,
        };
        let spec = spec_of(&key);
        let mask = mask_of(&key, &spec);
        let loops = kernel_for(op, key.taylor_terms)
            .loops
            .iter()
            .map(|l| {
                let dfg = fuse_patterns(&unroll(&l.dfg, 1));
                let mapping = map_dfg_with(&dfg, &spec, key.seed, &mask, None).unwrap();
                let (label, kind) = (l.label.clone(), kind_of(l.class));
                CompiledLoop { label, kind, mapping, uf: 1, vf: 1 }
            })
            .collect();
        (key, loops)
    }

    #[test]
    fn bitstream_round_trips_exactly() {
        let (key, loops) = entry_for(NonlinearOp::Softmax);
        let text = export_bitstream(&key, &loops).unwrap();
        assert!(text.starts_with("picachu-bitstream,1\nkey,softmax,4,4,fp16,"));
        assert!(text.contains("\nloop,"));
        assert!(text.contains("\nplace,"));
        assert!(text.contains("\nroute,"));
        assert!(text.contains("\npnr,"));
        let (key2, loops2) = import_bitstream(&text).unwrap();
        assert_eq!(key, key2);
        assert_eq!(loops, loops2);
        // the text itself is deterministic
        assert_eq!(text, export_bitstream(&key2, &loops2).unwrap());
    }

    /// `text` with its first row starting with `prefix` passed through `f`
    /// (`None` drops the row).
    fn edit_row(text: &str, prefix: &str, f: impl Fn(&str) -> Option<String>) -> String {
        let mut done = false;
        text.lines()
            .filter_map(|l| {
                if !done && l.starts_with(prefix) {
                    done = true;
                    f(l)
                } else {
                    Some(l.to_string())
                }
            })
            .map(|l| l + "\n")
            .collect()
    }

    /// `text` with numeric field `idx` of its first `prefix` row rewritten.
    fn edit_field(text: &str, prefix: &str, idx: usize, value: impl Fn(u64) -> u64) -> String {
        edit_row(text, prefix, |l| {
            let mut f: Vec<String> = l.split(',').map(str::to_string).collect();
            f[idx] = value(f[idx].parse().unwrap()).to_string();
            Some(f.join(","))
        })
    }

    #[test]
    fn import_rejects_tampering() {
        let (key, loops) = entry_for(NonlinearOp::Softmax);
        assert_eq!(loops.len(), 3);
        let text = export_bitstream(&key, &loops).unwrap();
        let max = u64::from(u32::MAX);
        let cases: Vec<(&str, String)> = vec![
            ("empty", String::new()),
            ("unsupported version", "picachu-bitstream,999\n".to_string()),
            ("last loop block removed", text[..=text.rfind("\nloop,").unwrap()].to_string()),
            ("node id out of range", edit_field(&text, "place,", 1, |_| 999)),
            ("tile out of range", edit_field(&text, "place,", 2, |_| 16)),
            ("placement shifted one tile", edit_field(&text, "place,", 2, |t| (t + 1) % 16)),
            ("time near u32::MAX", edit_field(&text, "place,", 3, |_| max - 1)),
            ("ii = 0", edit_field(&text, "loop,", 5, |_| 0)),
            ("ii + 3 on the loop row only", edit_field(&text, "loop,", 5, |ii| ii + 3)),
            ("ii = u32::MAX", edit_field(&text, "loop,", 5, |_| max)),
            ("schedule_len + 100", edit_field(&text, "loop,", 6, |len| len + 100)),
            ("uf not a candidate", edit_field(&text, "loop,", 3, |_| 3)),
            ("dropped route row", edit_row(&text, "route,", |_| None)),
            ("edited pnr row", edit_field(&text, "pnr,", 5, |hops| hops + 1)),
            ("zero-row fabric", edit_field(&text, "key,", 2, |_| 0)),
            ("unknown row", format!("{text}bogus,1\n")),
            ("trailing blank line", format!("{text}\n")),
        ];
        for (what, bad) in &cases {
            assert_ne!(bad, &text, "{what}: the edit must change the text");
            assert!(import_bitstream(bad).is_err(), "{what}: tampered bitstream accepted");
        }
    }
}
