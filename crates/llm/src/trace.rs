//! Operator traces: the sequence of GEMMs and nonlinear operations one
//! transformer forward pass (prefill) executes.
//!
//! The engine and every baseline model consume this common trace, so the
//! end-to-end comparisons differ only in how each device executes the same
//! operators — the paper's methodology for Figs. 1, 8 and 9.

use crate::models::{ModelConfig, PosKind};
use picachu_nonlinear::NonlinearOp;
use std::fmt;

/// One traced operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A GEMM of shape `m×k · k×n` (already folded over heads where the
    /// per-head GEMMs share a shape: `count` repetitions).
    Gemm {
        /// Rows.
        m: usize,
        /// Contraction.
        k: usize,
        /// Columns.
        n: usize,
        /// Identical repetitions (e.g. one per attention head).
        count: usize,
    },
    /// A nonlinear operation over `rows` channels of `channel` elements.
    Nonlinear {
        /// Which Table 1 operation.
        op: NonlinearOp,
        /// Number of independent channels (reduction rows).
        rows: usize,
        /// Elements per channel.
        channel: usize,
    },
}

impl TraceOp {
    /// Total MAC operations (GEMMs only).
    pub fn macs(&self) -> u64 {
        match *self {
            TraceOp::Gemm { m, k, n, count } => (m * k * n * count) as u64,
            TraceOp::Nonlinear { .. } => 0,
        }
    }

    /// Total elements a nonlinear op touches (0 for GEMMs).
    pub fn elements(&self) -> u64 {
        match *self {
            TraceOp::Gemm { .. } => 0,
            TraceOp::Nonlinear { rows, channel, .. } => (rows * channel) as u64,
        }
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceOp::Gemm { m, k, n, count } => write!(f, "gemm {m}x{k}x{n} x{count}"),
            TraceOp::Nonlinear { op, rows, channel } => {
                write!(f, "{op} {rows}x{channel}")
            }
        }
    }
}

/// The trace of one decoder layer at sequence length `seq` (prefill).
pub fn layer_trace(cfg: &ModelConfig, seq: usize) -> Vec<TraceOp> {
    let d = cfg.d_model;
    let dh = cfg.d_head();
    let h = cfg.n_heads;
    let ff = cfg.d_ff;
    let norm_op = cfg.norm.op();
    let span = cfg.attn_span.map_or(seq, |s| s.min(seq));
    let mut t = Vec::new();

    // pre-attention norm
    t.push(TraceOp::Nonlinear { op: norm_op, rows: seq, channel: d });
    // QKV projection
    t.push(TraceOp::Gemm { m: seq, k: d, n: 3 * d, count: 1 });
    // rotary embedding on Q and K
    if cfg.pos == PosKind::Rope {
        t.push(TraceOp::Nonlinear { op: NonlinearOp::Rope, rows: 2 * seq, channel: d });
    }
    // attention scores per head (sparse models attend `span` keys)
    t.push(TraceOp::Gemm { m: seq, k: dh, n: span, count: h });
    // softmax over each row of each head
    t.push(TraceOp::Nonlinear { op: NonlinearOp::Softmax, rows: h * seq, channel: span });
    // attention output per head
    t.push(TraceOp::Gemm { m: seq, k: span, n: dh, count: h });
    // output projection
    t.push(TraceOp::Gemm { m: seq, k: d, n: d, count: 1 });
    // pre-FFN norm
    t.push(TraceOp::Nonlinear { op: norm_op, rows: seq, channel: d });
    // FFN
    // 1 or 2 up-projections feeding the (possibly gated) activation
    t.push(TraceOp::Gemm { m: seq, k: d, n: ff, count: cfg.activation.up_projections() });
    t.push(TraceOp::Nonlinear { op: cfg.activation.op(), rows: seq, channel: ff });
    // down projection
    t.push(TraceOp::Gemm { m: seq, k: ff, n: d, count: 1 });
    t
}

/// Full-model trace: `layers` copies of the layer trace plus the final norm.
pub fn model_trace(cfg: &ModelConfig, seq: usize) -> Vec<TraceOp> {
    let mut t = Vec::new();
    for _ in 0..cfg.layers {
        t.extend(layer_trace(cfg, seq));
    }
    let norm_op = cfg.norm.op();
    t.push(TraceOp::Nonlinear { op: norm_op, rows: seq, channel: cfg.d_model });
    t
}

/// The trace of one decoder layer in the **decode phase**: `batch`
/// sequences (continuous batching) each attend one new token over a KV
/// cache of `context` entries. Attention GEMMs degrade to GEMVs, so the
/// nonlinear share is even higher than in prefill. Weight GEMMs fold the
/// batch into `m` — one `batch×k·k×n` matmul per projection, which is why
/// serving batches decode steps — while attention GEMVs repeat `batch`
/// times per head and nonlinear rows scale by `batch`.
pub fn batched_decode_layer_trace(
    cfg: &ModelConfig,
    context: usize,
    batch: usize,
) -> Vec<TraceOp> {
    let b = batch.max(1);
    let d = cfg.d_model;
    let dh = cfg.d_head();
    let h = cfg.n_heads;
    let ff = cfg.d_ff;
    let norm_op = cfg.norm.op();
    let span = cfg.attn_span.map_or(context, |s| s.min(context));
    let mut t = Vec::new();
    t.push(TraceOp::Nonlinear { op: norm_op, rows: b, channel: d });
    t.push(TraceOp::Gemm { m: b, k: d, n: 3 * d, count: 1 });
    if cfg.pos == PosKind::Rope {
        t.push(TraceOp::Nonlinear { op: NonlinearOp::Rope, rows: 2 * b, channel: d });
    }
    t.push(TraceOp::Gemm { m: 1, k: dh, n: span, count: h * b });
    t.push(TraceOp::Nonlinear { op: NonlinearOp::Softmax, rows: h * b, channel: span });
    t.push(TraceOp::Gemm { m: 1, k: span, n: dh, count: h * b });
    t.push(TraceOp::Gemm { m: b, k: d, n: d, count: 1 });
    t.push(TraceOp::Nonlinear { op: norm_op, rows: b, channel: d });
    // 1 or 2 up-projections feeding the (possibly gated) activation
    t.push(TraceOp::Gemm { m: b, k: d, n: ff, count: cfg.activation.up_projections() });
    t.push(TraceOp::Nonlinear { op: cfg.activation.op(), rows: b, channel: ff });
    t.push(TraceOp::Gemm { m: b, k: ff, n: d, count: 1 });
    t
}

/// Full-model decode-step trace: `batch` sequences advanced one token
/// each, every sequence holding `context` cached tokens.
pub fn batched_decode_trace(cfg: &ModelConfig, context: usize, batch: usize) -> Vec<TraceOp> {
    let mut t = Vec::new();
    for _ in 0..cfg.layers {
        t.extend(batched_decode_layer_trace(cfg, context, batch));
    }
    let norm_op = cfg.norm.op();
    t.push(TraceOp::Nonlinear { op: norm_op, rows: batch.max(1), channel: cfg.d_model });
    t
}

/// Total MACs of a trace.
pub fn total_macs(trace: &[TraceOp]) -> u64 {
    trace.iter().map(|o| o.macs()).sum()
}

/// Total nonlinear elements of a trace.
pub fn total_nonlinear_elements(trace: &[TraceOp]) -> u64 {
    trace.iter().map(|o| o.elements()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_shapes_gpt2xl() {
        let cfg = ModelConfig::gpt2_xl();
        let t = layer_trace(&cfg, 1024);
        // 2 norms, softmax, gelu + 5 GEMMs (qkv, scores, av, out, up, down)=6
        let gemms = t.iter().filter(|o| matches!(o, TraceOp::Gemm { .. })).count();
        let nls = t.iter().filter(|o| matches!(o, TraceOp::Nonlinear { .. })).count();
        assert_eq!(gemms, 6);
        assert_eq!(nls, 4);
    }

    #[test]
    fn llama_has_rope_and_gated_ffn() {
        let cfg = ModelConfig::llama2_7b();
        let t = layer_trace(&cfg, 512);
        assert!(t.iter().any(|o| matches!(o, TraceOp::Nonlinear { op: NonlinearOp::Rope, .. })));
        let gated = t.iter().find_map(|o| match o {
            TraceOp::Gemm { n, count: 2, .. } => Some(*n),
            _ => None,
        });
        assert_eq!(gated, Some(11008));
    }

    #[test]
    fn softmax_quadratic_in_seq() {
        let cfg = ModelConfig::gpt2();
        let e = |s: usize| {
            layer_trace(&cfg, s)
                .iter()
                .filter_map(|o| match o {
                    TraceOp::Nonlinear { op: NonlinearOp::Softmax, .. } => Some(o.elements()),
                    _ => None,
                })
                .sum::<u64>()
        };
        assert_eq!(e(2048), 4 * e(1024));
    }

    #[test]
    fn model_macs_match_2pd_rule() {
        // prefill MACs ≈ params × seq (the standard 2·P·N FLOPs rule halved)
        let cfg = ModelConfig::llama2_7b();
        let seq = 512;
        let macs = total_macs(&model_trace(&cfg, seq));
        let expect = cfg.approx_params() * seq as u64;
        let ratio = macs as f64 / expect as f64;
        assert!((0.9..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn final_norm_appended() {
        let cfg = ModelConfig::opt_6_7b();
        let t = model_trace(&cfg, 64);
        assert!(matches!(
            t.last(),
            Some(TraceOp::Nonlinear { op: NonlinearOp::LayerNorm, .. })
        ));
    }

    #[test]
    fn decode_trace_is_gemv_shaped() {
        let cfg = ModelConfig::llama2_7b();
        let t = batched_decode_trace(&cfg, 1024, 1);
        for op in &t {
            if let TraceOp::Gemm { m, .. } = op {
                assert_eq!(*m, 1, "decode GEMMs are GEMVs");
            }
        }
        // softmax rows = heads, channel = context
        assert!(t.iter().any(|o| matches!(
            o,
            TraceOp::Nonlinear { op: NonlinearOp::Softmax, rows: 32, channel: 1024 }
        )));
    }

    #[test]
    fn decode_macs_scale_with_params_not_context() {
        let cfg = ModelConfig::opt_6_7b();
        let short = total_macs(&batched_decode_trace(&cfg, 128, 1));
        let long = total_macs(&batched_decode_trace(&cfg, 2048, 1));
        // only the attention GEMVs grow with context
        assert!(long < short * 2, "{long} vs {short}");
        assert!(long > short);
    }

    #[test]
    fn batched_decode_folds_weights_and_replicates_attention() {
        let cfg = ModelConfig::gpt2();
        let b1 = batched_decode_trace(&cfg, 256, 1);
        let b8 = batched_decode_trace(&cfg, 256, 8);
        // total work scales exactly linearly in batch ...
        assert_eq!(8 * total_macs(&b1), total_macs(&b8));
        assert_eq!(8 * total_nonlinear_elements(&b1), total_nonlinear_elements(&b8));
        // ... but the weight GEMMs fold the batch into m (fewer, fatter
        // matmuls — the economics of continuous batching), while the
        // per-sequence attention GEMVs replicate via count
        assert!(b8.iter().any(|o| matches!(o, TraceOp::Gemm { m: 8, .. })));
        assert!(b8
            .iter()
            .any(|o| matches!(o, TraceOp::Gemm { m: 1, count, .. } if *count == 8 * cfg.n_heads)));
        assert_eq!(b1.len(), b8.len());
    }

    #[test]
    fn trace_op_accounting() {
        let g = TraceOp::Gemm { m: 2, k: 3, n: 4, count: 5 };
        assert_eq!(g.macs(), 120);
        assert_eq!(g.elements(), 0);
        let n = TraceOp::Nonlinear { op: NonlinearOp::Gelu, rows: 8, channel: 16 };
        assert_eq!(n.elements(), 128);
        assert_eq!(n.macs(), 0);
    }
}
