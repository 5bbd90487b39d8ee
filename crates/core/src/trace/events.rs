//! The engine event stream: the one record of what an engine ran.
//!
//! Engines append an [`EngineEvent`] at each hook point, stamped with
//! the SoC's simulated clock. Both analysis views are pure projections
//! of this one stream — [`ConcurrencyLog::from_events`] (the race
//! detector's happens-before evidence) and [`Timeline::from_events`]
//! (the observability layer's spans and flows) — so the race view and
//! the time view always describe the same run.
//!
//! [`ConcurrencyLog::from_events`]: crate::trace::ConcurrencyLog::from_events
//! [`Timeline::from_events`]: crate::obs::Timeline::from_events

use std::fmt;

use hetero_soc::sync::SyncMechanism;
use hetero_soc::{Backend, KernelDesc, OpKind, SimTime};

/// The display name of a kernel span, kept symbolic so recording never
/// formats a string; the timeline projection renders and interns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelName {
    /// A matmul, displayed by its shape: `matmul[MxKxN]`.
    Matmul {
        /// Rows.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns.
        n: usize,
    },
    /// A fixed name: a trace op (`qkv`), a kernel label (`softmax`),
    /// `host_copy`.
    Static(&'static str),
    /// One side of a parallel section that submits several kernels:
    /// `batch×N`.
    Batch(usize),
}

impl KernelName {
    /// The name a kernel descriptor displays under.
    pub fn of(kernel: &KernelDesc) -> Self {
        match &kernel.op {
            OpKind::Matmul { shape, .. } => Self::Matmul {
                m: shape.m,
                k: shape.k,
                n: shape.n,
            },
            OpKind::MemBound { label, .. } => Self::Static(label.name()),
            OpKind::HostCopy { .. } => Self::Static("host_copy"),
        }
    }
}

impl fmt::Display for KernelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Matmul { m, k, n } => write!(f, "matmul[{m}x{k}x{n}]"),
            Self::Static(s) => f.write_str(s),
            Self::Batch(n) => write!(f, "batch×{n}"),
        }
    }
}

/// One thing an engine did, on the SoC's simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// A kernel ran alone on `backend` over `[start, end]`, writing an
    /// `out_bytes` activation and signalling its completion flag.
    Kernel {
        /// Backend the kernel ran on.
        backend: Backend,
        /// Span display name.
        name: KernelName,
        /// Bytes of the output activation.
        out_bytes: u64,
        /// Mechanism carrying the completion flag.
        mechanism: SyncMechanism,
        /// Submission time.
        start: SimTime,
        /// Completion time.
        end: SimTime,
    },
    /// Execution moved from `from` to `to`, paying `[start, end]` of
    /// synchronization cost; `to` waits on the live outputs `from`
    /// wrote.
    Switch {
        /// Backend that ran the previous kernel.
        from: Backend,
        /// Backend that runs the next kernel.
        to: Backend,
        /// Mechanism carrying the waits.
        mechanism: SyncMechanism,
        /// When the switch began.
        start: SimTime,
        /// When the destination was ready.
        end: SimTime,
    },
    /// GPU and NPU partials ran side by side from `start`; the GPU side
    /// finished at `gpu_end`, the NPU side at `npu_end`, and the CPU
    /// rendezvous joining them completed at `end`.
    Parallel {
        /// GPU side's span name.
        gpu: KernelName,
        /// NPU side's span name.
        npu: KernelName,
        /// Bytes of the GPU side's output.
        gpu_bytes: u64,
        /// Bytes of the NPU side's output.
        npu_bytes: u64,
        /// Mechanism carrying the rendezvous.
        mechanism: SyncMechanism,
        /// When both sides were submitted.
        start: SimTime,
        /// When the GPU side finished.
        gpu_end: SimTime,
        /// When the NPU side finished.
        npu_end: SimTime,
        /// When the rendezvous completed.
        end: SimTime,
    },
    /// The CPU compiled the NPU graph for sequence length `m` over
    /// `[start, end]`.
    GraphCompile {
        /// Sequence length of the graph.
        m: usize,
        /// Compile start.
        start: SimTime,
        /// Compile end.
        end: SimTime,
    },
    /// A graph-cache lookup: `hit` when the graph was already compiled.
    GraphLookup {
        /// Whether the lookup hit.
        hit: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_soc::kernel::KernelLabel;
    use hetero_tensor::shape::MatmulShape;

    #[test]
    fn kernel_names_derive_from_descriptors() {
        let mm = KernelDesc::matmul_w4a16(MatmulShape { m: 8, k: 16, n: 32 });
        assert_eq!(KernelName::of(&mm).to_string(), "matmul[8x16x32]");
        let mb = KernelDesc::mem_bound(KernelLabel::Softmax, 1, 1, 1);
        assert_eq!(KernelName::of(&mb).to_string(), "softmax");
        let copy = KernelDesc::host_copy(64);
        assert_eq!(KernelName::of(&copy).to_string(), "host_copy");
        assert_eq!(KernelName::Batch(2).to_string(), "batch×2");
    }
}
