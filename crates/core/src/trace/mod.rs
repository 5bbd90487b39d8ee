//! Operator traces — the exact kernel sequence of a prefill or decode
//! step for a model configuration — and the record of how an engine ran
//! them.
//!
//! Traces drive timing mode — engines schedule each [`TraceOp`] onto
//! backends under their policy — and mirror the execution flow of the
//! paper's Fig. 7: weight Matmuls are the partitionable "blue" blocks;
//! RMSNorm/SwiGLU/RoPE/softmax/attention are the GPU-side "orange"
//! blocks (attention operates on dynamic KV lengths, which static NPU
//! graphs cannot express).
//!
//! ```
//! use heterollm::trace::{prefill_trace, OpRole};
//! use heterollm::ModelConfig;
//!
//! let trace = prefill_trace(&ModelConfig::internlm_1_8b(), 256);
//! // Four partitionable weight Matmuls per decoder layer: qkv,
//! // attn_out, gate_up, ffn_down.
//! let per_layer = trace
//!     .layer
//!     .iter()
//!     .filter(|op| op.role == OpRole::WeightMatmul)
//!     .count();
//! assert_eq!(per_layer, 4);
//! // The full step repeats the layer once per decoder layer.
//! assert_eq!(
//!     trace.iter_all().count(),
//!     trace.prologue.len() + trace.layer.len() * trace.layers + trace.epilogue.len()
//! );
//! assert!(trace.total_flops() > 0 && trace.total_bytes() > 0);
//! ```
//!
//! While executing a trace, an engine with recording armed
//! (`enable_events` / `take_events` on [`crate::engines::Engine`])
//! appends one [`EngineEvent`] per step; [`events`] describes the two
//! views projected from that stream.

pub mod concurrency;
pub mod events;

pub use concurrency::{ConcurrencyEvent, ConcurrencyLog, ConcurrencyOp};
pub use events::{EngineEvent, KernelName};

use crate::model::ModelConfig;
use hetero_soc::kernel::KernelLabel;
use hetero_soc::KernelDesc;
use hetero_tensor::shape::MatmulShape;

/// How an engine may route one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpRole {
    /// A static-shape weight Matmul — partitionable across backends.
    WeightMatmul,
    /// Attention over the KV cache (dynamic shape; GPU/CPU only).
    Attention,
    /// Auxiliary memory-bound kernel (norms, activations, RoPE, ...).
    Aux,
}

/// One operator instance in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOp {
    /// Stable operator name (`"qkv"`, `"ffn_down"`, `"attention"`, ...).
    pub op: &'static str,
    /// Routing class.
    pub role: OpRole,
    /// Logical Matmul shape for weight Matmuls (`None` otherwise).
    pub shape: Option<MatmulShape>,
    /// The kernel in its *logical* (unpermuted, GPU-oriented) form.
    pub kernel: KernelDesc,
}

/// The kernel sequence of one phase step.
///
/// All decoder layers share the same shapes, so the trace stores one
/// layer's ops plus the repeat count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Pre-layer ops (embedding gather).
    pub prologue: Vec<TraceOp>,
    /// One decoder layer's ops, in execution order.
    pub layer: Vec<TraceOp>,
    /// Number of layer repetitions.
    pub layers: usize,
    /// Post-layer ops (final norm, LM head).
    pub epilogue: Vec<TraceOp>,
}

impl PhaseTrace {
    /// Iterate every op of the full trace in execution order.
    pub fn iter_all(&self) -> impl Iterator<Item = &TraceOp> {
        self.prologue
            .iter()
            .chain(
                std::iter::repeat_with(|| self.layer.iter())
                    .take(self.layers)
                    .flatten(),
            )
            .chain(self.epilogue.iter())
    }

    /// Total FLOPs of the step.
    pub fn total_flops(&self) -> u64 {
        self.iter_all().map(|op| op.kernel.flops()).sum()
    }

    /// Total DRAM traffic of the step, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.iter_all().map(|op| op.kernel.bytes()).sum()
    }
}

fn weight_matmul(op: &'static str, m: usize, k: usize, n: usize) -> TraceOp {
    let shape = MatmulShape::new(m, k, n);
    TraceOp {
        op,
        role: OpRole::WeightMatmul,
        shape: Some(shape),
        kernel: KernelDesc::matmul_w4a16(shape),
    }
}

fn aux(op: &'static str, label: KernelLabel, read: u64, write: u64, flops: u64) -> TraceOp {
    TraceOp {
        op,
        role: OpRole::Aux,
        shape: None,
        kernel: KernelDesc::mem_bound(label, read, write, flops),
    }
}

/// Attention (scores + softmax·V) for `m` query rows over `ctx` cached
/// positions: flops of both batched matmuls, traffic of K+V plus the
/// query/output activations.
fn attention(cfg: &ModelConfig, m: usize, ctx: usize) -> TraceOp {
    let (h, hd, heads) = (cfg.hidden as u64, cfg.head_dim() as u64, cfg.heads as u64);
    let flops = 2 * 2 * m as u64 * heads * hd * ctx as u64;
    // One layer's K+V traffic, from the same formula the KV ablation
    // uses so the two can never drift apart.
    let kv_bytes = crate::kv::KvCache::decode_read_bytes(1, cfg.kv_dim(), ctx, cfg.kv_dtype);
    let act_bytes = m as u64 * h * 2;
    TraceOp {
        op: "attention",
        role: OpRole::Attention,
        shape: None,
        kernel: KernelDesc::mem_bound(
            KernelLabel::Attention,
            kv_bytes + act_bytes,
            act_bytes,
            flops,
        ),
    }
}

/// Build the one-layer op sequence for `m` new rows attending over
/// `ctx` total positions.
fn layer_ops(cfg: &ModelConfig, m: usize, ctx: usize) -> Vec<TraceOp> {
    let (h, kv, ffn) = (cfg.hidden, cfg.kv_dim(), cfg.ffn);
    let (mu, hu, kvu, ffnu) = (m as u64, h as u64, kv as u64, ffn as u64);
    let row = mu * hu * 2; // one activation pass, f16
    vec![
        aux(
            "attn_norm",
            KernelLabel::RmsNorm,
            row + hu * 2,
            row,
            4 * mu * hu,
        ),
        weight_matmul("qkv", m, h, h + 2 * kv),
        aux(
            "rope",
            KernelLabel::Rope,
            mu * (hu + kvu) * 2,
            mu * (hu + kvu) * 2,
            6 * mu * (hu + kvu),
        ),
        aux(
            "kv_append",
            KernelLabel::KvAppend,
            mu * 2 * kvu * 2,
            mu * 2 * kvu * 2,
            0,
        ),
        attention(cfg, m, ctx),
        aux(
            "softmax",
            KernelLabel::Softmax,
            mu * cfg.heads as u64 * ctx as u64 * 2,
            mu * cfg.heads as u64 * ctx as u64 * 2,
            5 * mu * cfg.heads as u64 * ctx as u64,
        ),
        weight_matmul("attn_out", m, h, h),
        aux("residual1", KernelLabel::ResidualAdd, 2 * row, row, mu * hu),
        aux(
            "ffn_norm",
            KernelLabel::RmsNorm,
            row + hu * 2,
            row,
            4 * mu * hu,
        ),
        weight_matmul("gate_up", m, h, 2 * ffn),
        aux(
            "swiglu",
            KernelLabel::Swiglu,
            2 * mu * ffnu * 2,
            mu * ffnu * 2,
            8 * mu * ffnu,
        ),
        weight_matmul("ffn_down", m, ffn, h),
        aux("residual2", KernelLabel::ResidualAdd, 2 * row, row, mu * hu),
    ]
}

/// The prefill trace for a prompt of `m` tokens.
///
/// The LM head runs only for the final position (standard prefill
/// optimization; the paper's prefill throughput counts prompt tokens).
pub fn prefill_trace(cfg: &ModelConfig, m: usize) -> PhaseTrace {
    let hu = cfg.hidden as u64;
    PhaseTrace {
        prologue: vec![aux(
            "embed",
            KernelLabel::Embed,
            m as u64 * hu * 4,
            m as u64 * hu * 2,
            0,
        )],
        layer: layer_ops(cfg, m, m),
        layers: cfg.layers,
        epilogue: vec![
            aux("final_norm", KernelLabel::RmsNorm, hu * 4, hu * 2, 4 * hu),
            weight_matmul("lm_head", 1, cfg.hidden, cfg.vocab),
        ],
    }
}

/// The trace of one decode step producing the token at position
/// `ctx - 1` (attending over `ctx` positions; `m = tokens_per_step` is
/// 1 for standard decoding, `n` for speculative decoding §4.1.2).
pub fn decode_trace(cfg: &ModelConfig, ctx: usize, tokens_per_step: usize) -> PhaseTrace {
    let m = tokens_per_step;
    let hu = cfg.hidden as u64;
    PhaseTrace {
        prologue: vec![aux(
            "embed",
            KernelLabel::Embed,
            m as u64 * hu * 4,
            m as u64 * hu * 2,
            0,
        )],
        layer: layer_ops(cfg, m, ctx),
        layers: cfg.layers,
        epilogue: vec![
            aux(
                "final_norm",
                KernelLabel::RmsNorm,
                m as u64 * hu * 2,
                m as u64 * hu * 2,
                4 * hu,
            ),
            weight_matmul("lm_head", m, cfg.hidden, cfg.vocab),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_flops_track_model_size() {
        // Prefill FLOPs ≈ 2 · params · tokens (within ~20%: attention
        // and norms add, LM-head-once subtracts).
        let cfg = ModelConfig::llama_8b();
        let m = 256;
        let t = prefill_trace(&cfg, m);
        let expected = 2.0 * cfg.param_count() as f64 * m as f64;
        let actual = t.total_flops() as f64;
        let ratio = actual / expected;
        assert!((0.75..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn decode_traffic_dominated_by_weights() {
        // One decode step must stream ≈ the whole W4 model.
        let cfg = ModelConfig::llama_8b();
        let t = decode_trace(&cfg, 256, 1);
        let bytes = t.total_bytes() as f64;
        let weights = cfg.weight_bytes_w4() as f64;
        // Weight traffic ≈ int4 matrices (trace charges int4 + f16 act).
        assert!(
            (0.8..1.3).contains(&(bytes / weights)),
            "{}",
            bytes / weights
        );
    }

    #[test]
    fn weight_matmuls_have_shapes() {
        let cfg = ModelConfig::llama_8b();
        let t = prefill_trace(&cfg, 64);
        for op in t.iter_all() {
            match op.role {
                OpRole::WeightMatmul => assert!(op.shape.is_some(), "{}", op.op),
                _ => assert!(op.shape.is_none(), "{}", op.op),
            }
        }
        // The four per-layer weight matmuls of §5.2.2 plus the LM head.
        let names: Vec<_> = t
            .layer
            .iter()
            .filter(|o| o.role == OpRole::WeightMatmul)
            .map(|o| o.op)
            .collect();
        assert_eq!(names, vec!["qkv", "attn_out", "gate_up", "ffn_down"]);
    }

    #[test]
    fn decode_attention_grows_with_context() {
        let cfg = ModelConfig::llama_8b();
        let short = decode_trace(&cfg, 64, 1);
        let long = decode_trace(&cfg, 1024, 1);
        let attn = |t: &PhaseTrace| {
            t.layer
                .iter()
                .find(|o| o.op == "attention")
                .map(|o| o.kernel.bytes())
                .unwrap()
        };
        assert!(attn(&long) > attn(&short) * 8);
    }

    #[test]
    fn speculative_decode_scales_rows() {
        let cfg = ModelConfig::llama_3b();
        let one = decode_trace(&cfg, 256, 1);
        let spec = decode_trace(&cfg, 256, 4);
        let mm = |t: &PhaseTrace| {
            t.layer
                .iter()
                .filter(|o| o.role == OpRole::WeightMatmul)
                .count()
        };
        assert_eq!(mm(&one), mm(&spec));
        assert!(spec.total_flops() > one.total_flops() * 3);
        // Weight traffic stays ~constant: the point of speculation.
        let ratio = spec.total_bytes() as f64 / one.total_bytes() as f64;
        assert!(ratio < 1.3, "weight reuse broken: {ratio}");
    }

    #[test]
    fn iter_all_repeats_layers() {
        let cfg = ModelConfig::tiny();
        let t = prefill_trace(&cfg, 8);
        let count = t.iter_all().count();
        assert_eq!(
            count,
            t.prologue.len() + cfg.layers * t.layer.len() + t.epilogue.len()
        );
    }
}
