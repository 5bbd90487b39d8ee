//! Reference CPU kernels.
//!
//! These implement the exact operator set the paper's execution flow
//! (Fig. 7) schedules across backends: Matmul (GEMM/GEMV), RMSNorm,
//! SwiGLU/SiLU, RoPE, softmax, elementwise arithmetic, embedding lookup
//! and sampling. They serve as both the functional-mode executor and
//! the golden reference for partition-equivalence tests.

pub mod activation;
pub mod attention;
pub mod elementwise;
pub mod embedding;
pub mod gemm;
pub mod norm;
pub mod rope;
pub mod sampling;

pub use activation::{gelu, silu, softmax_rows, swiglu};
pub use attention::{causal_attention, AttentionConfig};
pub use elementwise::{add, mul, scale};
pub use embedding::embed;
pub use gemm::{matmul, matmul_ref, matmul_w4};
pub use norm::rmsnorm;
pub use rope::apply_rope;
pub use sampling::{argmax, sample_top_k};
