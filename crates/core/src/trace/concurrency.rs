//! Typed concurrency event log for cross-backend executions.
//!
//! The fast-synchronization runtime (§4.2) replaces driver events with
//! shared-memory flag polling over pooled buffers. That is exactly the
//! kind of hand-rolled rendezvous where a missing edge silently
//! corrupts activations instead of failing, so every engine's event
//! stream projects onto a happens-before-relevant log: pooled-buffer
//! acquire/read/write/release, per-backend FIFO submit/complete, and
//! rendezvous signal/wait under either [`SyncMechanism`].
//!
//! The log is *evidence*, not policy: `hetero-analyze`'s vector-clock
//! race detector consumes it to prove (or refute) that all conflicting
//! buffer accesses are ordered by a signal→wait or queue edge.
//!
//! ```
//! use hetero_soc::sync::SyncMechanism;
//! use hetero_soc::{Backend, SimTime};
//! use heterollm::trace::{ConcurrencyLog, ConcurrencyOp, EngineEvent, KernelName};
//!
//! // A GPU kernel writes a pooled buffer and signals its flag; the
//! // switch makes the NPU wait that flag before touching the buffer.
//! let us = SimTime::from_micros;
//! let mechanism = SyncMechanism::Fast;
//! let events = [
//!     EngineEvent::Kernel {
//!         backend: Backend::Gpu,
//!         name: KernelName::Static("qkv"),
//!         out_bytes: 4096,
//!         mechanism,
//!         start: us(0),
//!         end: us(40),
//!     },
//!     EngineEvent::Switch {
//!         from: Backend::Gpu,
//!         to: Backend::Npu,
//!         mechanism,
//!         start: us(40),
//!         end: us(45),
//!     },
//! ];
//! let log = ConcurrencyLog::from_events(&events);
//! let signal = log
//!     .events
//!     .iter()
//!     .position(|e| matches!(e.op, ConcurrencyOp::Signal { .. }))
//!     .expect("the kernel signals its completion flag");
//! let wait = log
//!     .events
//!     .iter()
//!     .position(|e| e.actor == Backend::Npu && matches!(e.op, ConcurrencyOp::Wait { .. }))
//!     .expect("the switch waits that flag on the NPU");
//! assert!(signal < wait);
//! ```

use hetero_soc::sync::SyncMechanism;
use hetero_soc::{Backend, SimTime};

use crate::mempool::{BufferHandle, MemoryPool};
use crate::trace::EngineEvent;

/// What one concurrency event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcurrencyOp {
    /// A pooled buffer was acquired (mapped into both address spaces).
    BufferAcquire {
        /// Pool handle id.
        buffer: u64,
        /// Rounded (size-class) byte size of the slot.
        bytes: u64,
    },
    /// The actor read a pooled buffer (kernel input).
    BufferRead {
        /// Pool handle id.
        buffer: u64,
    },
    /// The actor wrote a pooled buffer (kernel output).
    BufferWrite {
        /// Pool handle id.
        buffer: u64,
    },
    /// The buffer returned to the pool (the device mapping persists).
    BufferRelease {
        /// Pool handle id.
        buffer: u64,
    },
    /// A kernel (or prebuilt graph) entered the actor's FIFO queue.
    Submit {
        /// Submission token, unique within one log.
        token: u64,
    },
    /// The submission identified by `token` retired from the queue.
    Complete {
        /// Token of the matching [`ConcurrencyOp::Submit`].
        token: u64,
    },
    /// A completion flag was set: a shared-memory store under
    /// [`SyncMechanism::Fast`], a driver event under
    /// [`SyncMechanism::Driver`].
    Signal {
        /// Synchronization mechanism carrying the flag.
        mechanism: SyncMechanism,
        /// Flag token, unique within one log.
        token: u64,
    },
    /// The actor blocked until the flag identified by `token` was set
    /// (spin-poll under Fast, event wait under Driver).
    Wait {
        /// Synchronization mechanism carrying the flag.
        mechanism: SyncMechanism,
        /// Flag token this wait observes.
        token: u64,
    },
}

/// One entry in a concurrency event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrencyEvent {
    /// Position in the log (total order of *recording*, not of
    /// execution — the happens-before relation is derived from the
    /// `op` payloads, not from `seq`).
    pub seq: u64,
    /// Simulated time the event was recorded at.
    pub at: SimTime,
    /// The backend (actor) performing the event. CPU-side control
    /// events (rendezvous joins, replans) use [`Backend::Cpu`].
    pub actor: Backend,
    /// The event payload.
    pub op: ConcurrencyOp,
}

/// An append-only concurrency event log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConcurrencyLog {
    /// Events in recording order.
    pub events: Vec<ConcurrencyEvent>,
}

impl ConcurrencyLog {
    /// New, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event, assigning the next sequence number.
    pub fn push(&mut self, at: SimTime, actor: Backend, op: ConcurrencyOp) {
        let seq = self.events.len() as u64;
        self.events.push(ConcurrencyEvent { seq, at, actor, op });
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The next unused token and the next unused buffer id.
    fn next_ids(&self) -> (u64, u64) {
        let (mut token, mut buffer) = (0, 0);
        for e in &self.events {
            let mut op = e.op;
            match op.id_mut() {
                (true, id) => token = token.max(*id),
                (false, id) => buffer = buffer.max(*id),
            }
        }
        (token + 1, buffer + 1)
    }

    /// Record a control-plane marker pair: a CPU-side signal
    /// immediately joined by a CPU-side wait, with a token fresh in
    /// this log. The runtime controller emits these around replans,
    /// fallbacks, rendezvous retries and sync downgrades so
    /// degradation-time quiesce points are visible in the log.
    pub fn push_marker(&mut self, mechanism: SyncMechanism, at: SimTime) {
        let (token, _) = self.next_ids();
        self.push(at, Backend::Cpu, ConcurrencyOp::Signal { mechanism, token });
        self.push(at, Backend::Cpu, ConcurrencyOp::Wait { mechanism, token });
    }

    /// Append `other`'s events with token and buffer-id spaces shifted
    /// past this log's, then resequence.
    ///
    /// Segments recorded by *different* engine instances (e.g. across a
    /// [`crate::runtime::RuntimeController`] rebuild) use independent
    /// pools and token counters; shifting keeps a buffer or flag in one
    /// segment from aliasing an unrelated one in another — a fresh
    /// engine's buffers genuinely are new allocations.
    pub fn append_shifted(&mut self, other: &ConcurrencyLog) {
        let (tok_base, buf_base) = self.next_ids();
        for e in &other.events {
            let mut op = e.op;
            let (is_token, id) = op.id_mut();
            *id += if is_token { tok_base } else { buf_base };
            self.push(e.at, e.actor, op);
        }
    }
}

impl ConcurrencyOp {
    /// The op's id, and whether it is a token (queue submission or
    /// flag) rather than a buffer id.
    fn id_mut(&mut self) -> (bool, &mut u64) {
        match self {
            Self::Submit { token }
            | Self::Complete { token }
            | Self::Signal { token, .. }
            | Self::Wait { token, .. } => (true, token),
            Self::BufferAcquire { buffer, .. }
            | Self::BufferRead { buffer }
            | Self::BufferWrite { buffer }
            | Self::BufferRelease { buffer } => (false, buffer),
        }
    }
}

/// A live activation buffer: who wrote it last and which completion
/// flag covers that write.
#[derive(Debug, Clone, Copy)]
struct LiveBuffer {
    handle: BufferHandle,
    writer: Backend,
    flag: u64,
}

impl ConcurrencyLog {
    /// Project an engine event stream onto its concurrency log.
    ///
    /// The projection owns a real [`MemoryPool`], so handles genuinely
    /// recycle through size classes the way the runtime's pool does —
    /// recycled-slot hazards in the log are the pool's actual recycling
    /// behaviour, not a simulation of it. It mirrors the engine's
    /// *actual* synchronization: a completion flag is signalled after
    /// every kernel retires, but a wait is only logged where the stream
    /// holds a backend switch or a rendezvous. If an engine skipped a
    /// sync, the log would carry a genuine race for the detector to
    /// find. Graph compiles and lookups carry no buffer traffic and
    /// leave no trace here.
    pub fn from_events(events: &[EngineEvent]) -> Self {
        let mut p = Projection::default();
        for e in events {
            match *e {
                EngineEvent::Kernel {
                    backend,
                    out_bytes,
                    mechanism,
                    start,
                    ..
                } => p.serial_kernel(backend, out_bytes, mechanism, start),
                EngineEvent::Switch {
                    to, mechanism, end, ..
                } => p.switch(to, mechanism, end),
                EngineEvent::Parallel {
                    gpu_bytes,
                    npu_bytes,
                    mechanism,
                    start,
                    ..
                } => p.parallel_section(gpu_bytes, npu_bytes, mechanism, start),
                EngineEvent::GraphCompile { .. } | EngineEvent::GraphLookup { .. } => {}
            }
        }
        p.finish()
    }
}

/// State of one [`ConcurrencyLog::from_events`] pass.
#[derive(Debug, Default)]
struct Projection {
    log: ConcurrencyLog,
    pool: MemoryPool,
    next_token: u64,
    /// Live activation outputs of the most recent step.
    current: Vec<LiveBuffer>,
    /// Rendezvous-continuation flag the next submission must wait on.
    handoff: Option<u64>,
}

impl Projection {
    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Signal a fresh completion flag on `actor`, returning its token.
    fn signal(&mut self, actor: Backend, mechanism: SyncMechanism, at: SimTime) -> u64 {
        let token = self.token();
        self.log
            .push(at, actor, ConcurrencyOp::Signal { mechanism, token });
        token
    }

    fn release(&mut self, actor: Backend, handle: BufferHandle, at: SimTime) {
        self.log.push(
            at,
            actor,
            ConcurrencyOp::BufferRelease {
                buffer: handle.id(),
            },
        );
        self.pool.release(handle);
    }

    /// The per-side sequence serial kernels and parallel partials
    /// share: wait the `waits` flags, acquire the output slot, submit,
    /// read `inputs`, write the output, and retire. Returns the output
    /// slot.
    fn side(
        &mut self,
        backend: Backend,
        bytes: u64,
        mechanism: SyncMechanism,
        at: SimTime,
        waits: impl IntoIterator<Item = u64>,
        inputs: &[LiveBuffer],
    ) -> BufferHandle {
        for token in waits {
            self.log
                .push(at, backend, ConcurrencyOp::Wait { mechanism, token });
        }
        let out = self.pool.acquire(bytes.max(1));
        self.log.push(
            at,
            backend,
            ConcurrencyOp::BufferAcquire {
                buffer: out.id(),
                bytes: out.bytes,
            },
        );
        let token = self.token();
        self.log.push(at, backend, ConcurrencyOp::Submit { token });
        for b in inputs {
            self.log.push(
                at,
                backend,
                ConcurrencyOp::BufferRead {
                    buffer: b.handle.id(),
                },
            );
        }
        self.log
            .push(at, backend, ConcurrencyOp::BufferWrite { buffer: out.id() });
        self.log
            .push(at, backend, ConcurrencyOp::Complete { token });
        out
    }

    /// A serial kernel on `backend`: one side that waits only the
    /// pending continuation (a switch already waited the inputs),
    /// consumes the live inputs, and releases them before signalling
    /// its flag.
    fn serial_kernel(
        &mut self,
        backend: Backend,
        bytes: u64,
        mechanism: SyncMechanism,
        at: SimTime,
    ) {
        let handoff = self.handoff.take();
        let mut inputs = std::mem::take(&mut self.current);
        let handle = self.side(backend, bytes, mechanism, at, handoff, &inputs);
        for b in inputs.drain(..) {
            self.release(backend, b.handle, at);
        }
        let flag = self.signal(backend, mechanism, at);
        inputs.push(LiveBuffer {
            handle,
            writer: backend,
            flag,
        });
        self.current = inputs;
    }

    /// A backend switch: the destination backend waits on the
    /// completion flags of every live buffer another backend wrote.
    fn switch(&mut self, to: Backend, mechanism: SyncMechanism, at: SimTime) {
        for b in &self.current {
            if b.writer != to {
                self.log.push(
                    at,
                    to,
                    ConcurrencyOp::Wait {
                        mechanism,
                        token: b.flag,
                    },
                );
            }
        }
    }

    /// A parallel GPU+NPU section ending in a rendezvous: each side
    /// waits the pending continuation and the flags of inputs another
    /// backend wrote, runs, and signals; the CPU control plane joins
    /// both flags, releases the inputs, and signals the continuation
    /// flag the next step waits on.
    fn parallel_section(
        &mut self,
        gpu_bytes: u64,
        npu_bytes: u64,
        mechanism: SyncMechanism,
        at: SimTime,
    ) {
        let handoff = self.handoff.take();
        let inputs = std::mem::take(&mut self.current);
        let mut outputs = Vec::with_capacity(2);
        for (backend, bytes) in [(Backend::Gpu, gpu_bytes), (Backend::Npu, npu_bytes)] {
            let cross = inputs
                .iter()
                .filter(|b| b.writer != backend)
                .map(|b| b.flag);
            let waits = handoff.into_iter().chain(cross);
            let handle = self.side(backend, bytes, mechanism, at, waits, &inputs);
            let flag = self.signal(backend, mechanism, at);
            outputs.push(LiveBuffer {
                handle,
                writer: backend,
                flag,
            });
        }
        // Rendezvous: the CPU control plane joins both partials.
        for o in &outputs {
            self.log.push(
                at,
                Backend::Cpu,
                ConcurrencyOp::Wait {
                    mechanism,
                    token: o.flag,
                },
            );
        }
        for b in inputs {
            self.release(Backend::Cpu, b.handle, at);
        }
        self.handoff = Some(self.signal(Backend::Cpu, mechanism, at));
        self.current = outputs;
    }

    /// Release any still-live buffers (each by its writing actor) and
    /// return the log.
    fn finish(mut self) -> ConcurrencyLog {
        for b in std::mem::take(&mut self.current) {
            self.release(b.writer, b.handle, SimTime::ZERO);
        }
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::KernelName;

    fn kernel(backend: Backend, mechanism: SyncMechanism) -> EngineEvent {
        EngineEvent::Kernel {
            backend,
            name: KernelName::Static("k"),
            out_bytes: 4096,
            mechanism,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        }
    }

    fn parallel() -> EngineEvent {
        EngineEvent::Parallel {
            gpu: KernelName::Static("g"),
            npu: KernelName::Static("n"),
            gpu_bytes: 4096,
            npu_bytes: 4096,
            mechanism: SyncMechanism::Fast,
            start: SimTime::ZERO,
            gpu_end: SimTime::ZERO,
            npu_end: SimTime::ZERO,
            end: SimTime::ZERO,
        }
    }

    #[test]
    fn serial_chain_records_expected_shape() {
        let gpu = kernel(Backend::Gpu, SyncMechanism::Fast);
        let log = ConcurrencyLog::from_events(&[gpu, gpu]);
        // Acquire/submit/write/complete/signal + read/release on the 2nd.
        let acquires = log
            .events
            .iter()
            .filter(|e| matches!(e.op, ConcurrencyOp::BufferAcquire { .. }))
            .count();
        let releases = log
            .events
            .iter()
            .filter(|e| matches!(e.op, ConcurrencyOp::BufferRelease { .. }))
            .count();
        assert_eq!(acquires, 2);
        assert_eq!(releases, 2);
    }

    #[test]
    fn parallel_section_ends_with_cpu_rendezvous() {
        let log =
            ConcurrencyLog::from_events(&[kernel(Backend::Gpu, SyncMechanism::Fast), parallel()]);
        let cpu_waits = log
            .events
            .iter()
            .filter(|e| e.actor == Backend::Cpu && matches!(e.op, ConcurrencyOp::Wait { .. }))
            .count();
        assert_eq!(cpu_waits, 2, "rendezvous joins both partial flags");
    }

    #[test]
    fn graph_events_leave_no_trace() {
        let graph = [
            EngineEvent::GraphLookup { hit: false },
            EngineEvent::GraphCompile {
                m: 64,
                start: SimTime::ZERO,
                end: SimTime::from_micros(9),
            },
        ];
        assert!(ConcurrencyLog::from_events(&graph).is_empty());
    }

    #[test]
    fn append_shifted_keeps_token_spaces_disjoint() {
        let mut log = ConcurrencyLog::from_events(&[kernel(Backend::Gpu, SyncMechanism::Fast)]);
        let second = ConcurrencyLog::from_events(&[kernel(Backend::Npu, SyncMechanism::Driver)]);
        let before = log.len();
        log.append_shifted(&second);
        assert_eq!(log.len(), before + second.len());
        // Buffer ids must not collide across segments.
        let first_bufs: Vec<u64> = log.events[..before]
            .iter()
            .filter_map(|e| match e.op {
                ConcurrencyOp::BufferAcquire { buffer, .. } => Some(buffer),
                _ => None,
            })
            .collect();
        let second_bufs: Vec<u64> = log.events[before..]
            .iter()
            .filter_map(|e| match e.op {
                ConcurrencyOp::BufferAcquire { buffer, .. } => Some(buffer),
                _ => None,
            })
            .collect();
        for b in &second_bufs {
            assert!(!first_bufs.contains(b), "buffer {b} aliased");
        }
        // Sequence numbers stay dense.
        for (i, e) in log.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }
}
