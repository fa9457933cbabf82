//! In-memory span recorder and the JSON report every workload process
//! prints as its last line.
//!
//! Spans are opened by the benchmark around calls into the measured crates'
//! public functions; nothing inside those crates is instrumented. Spans stay
//! in memory and leave the process once, inside the final report line.
//! With tracing off, [`Tracer::span`] just calls its closure.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: offsets are nanoseconds since the process's clock origin.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    counts: Vec<(&'static str, f64)>,
}

/// Records nested spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin` (the process start).
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named after the layer it calls into. The
    /// innermost open span becomes the parent.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds `v` to counter `key` of the innermost open span.
    pub fn count(&mut self, key: &'static str, v: f64) {
        let Some(&id) = self.open.last() else { return };
        let counts = &mut self.spans[id].counts;
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, c)) => *c += v,
            None => counts.push((key, v)),
        }
    }

    /// The spans as a JSON array: name, start, end, parent index, counts.
    fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"counts\":{{",
                sp.name, sp.start_ns, sp.end_ns, parent
            );
            for (j, (k, v)) in sp.counts.iter().enumerate() {
                let _ = write!(s, "{}\"{k}\":{}", if j > 0 { "," } else { "" }, num(*v));
            }
            s.push_str("}}");
        }
        s.push(']');
        s
    }
}

/// A finite f64 as a JSON number (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The flat key/value report a workload process prints as its last line.
#[derive(Default)]
pub struct Report {
    fields: Vec<(String, String)>,
}

impl Report {
    /// A numeric field.
    pub fn num(&mut self, key: &str, v: f64) {
        self.fields.push((key.into(), num(v)));
    }

    /// A string field (caller guarantees no quotes or backslashes).
    pub fn text(&mut self, key: &str, v: &str) {
        debug_assert!(!v.contains(['"', '\\']));
        self.fields.push((key.into(), format!("\"{v}\"")));
    }

    /// The report as one JSON object line, spans included.
    pub fn line(&self, tracer: &Tracer) -> String {
        let mut s = String::from("{");
        for (k, v) in &self.fields {
            let _ = write!(s, "\"{k}\":{v},");
        }
        let _ = write!(s, "\"spans\":{}}}", tracer.to_json());
        s
    }
}

/// FNV-1a over a canonical text rendering of a workload's modelled output:
/// equal digests mean bit-identical outputs across repetitions.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// High-water resident set of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
