//! The Hetero-tensor schedule, written once (§4.1–§4.3).
//!
//! A [`Planner`] holds the partition solvers and their plan tables; a
//! [`Plans`] walk routes every op of a phase trace — weight Matmuls
//! through their solved plan, [`lower`]ed to GPU/NPU kernels, everything
//! else serially on the GPU — into a [`Sink`]. The schedule has two
//! interpreters: the tensor engine's executor runs each step on the
//! simulated SoC, and the static mirror (`crate::admit::HeteroMirror`)
//! prices it as a `[lo, hi]` interval. Because both consume the same
//! walk, the mirror cannot drift from what the engine runs. The
//! functional engine charges its own plans through the same [`lower`].

use hetero_graph::partition::{PlanJoin, PlanPart};
use hetero_profiler::CostProvider;
use hetero_soc::sync::{Dominance, SyncMechanism, SyncModel};
use hetero_soc::{Backend, KernelDesc, SocCounters};
use hetero_solver::{PartitionPlan, PlanTable, Solver, SolverConfig};
use hetero_tensor::shape::MatmulShape;

use crate::engines::{gpu_kernel, npu_kernel};
use crate::error::EngineError;
use crate::model::ModelConfig;
use crate::trace::{decode_trace, prefill_trace, OpRole, PhaseTrace, TraceOp};

/// An interpreter of the schedule's steps.
pub(crate) trait Sink {
    /// Run `kernel` alone on `backend`.
    fn serial(&mut self, backend: Backend, kernel: &KernelDesc);

    /// Run the GPU and NPU kernel lists concurrently, then rendezvous.
    fn parallel(&mut self, gpu: &[KernelDesc], npu: &[KernelDesc], dominance: Dominance);

    /// The sink's state at a layer boundary, when a run of identical
    /// layers may be replayed from it instead of walked; `None` (the
    /// default) keeps the full walk.
    fn checkpoint(&self) -> Option<Checkpoint> {
        None
    }

    /// Replay `times` copies of a layer that advanced the counters by
    /// `delta`. Returns `false`, changing nothing, if it cannot.
    fn repeat(&mut self, _delta: SocCounters, _times: u64) -> bool {
        false
    }
}

/// A sink's state at a layer boundary: its backend-switch machine and
/// its SoC counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    pub(crate) current: Option<Backend>,
    pub(crate) counters: SocCounters,
}

/// Record a kernel on `backend` in the shared backend-switch machine:
/// returns the backend the previous kernel ran on when a switch must be
/// paid first (an unprimed machine pays none).
pub(crate) fn switch_to(current: &mut Option<Backend>, backend: Backend) -> Option<Backend> {
    current.replace(backend).filter(|&from| from != backend)
}

/// Lower one partition plan for a logical Matmul into sink steps:
/// serial plans run each part of the plan's layout alone, parallel
/// plans run the GPU part against the NPU parts.
pub(crate) fn lower(
    plan: &PartitionPlan,
    shape: MatmulShape,
    dominance: Dominance,
    sink: &mut impl Sink,
) {
    let layout = plan.layout();
    let kernel = |part: PlanPart| match part.backend() {
        Backend::Gpu => gpu_kernel(part.shape(shape)),
        _ => npu_kernel(part.shape(shape)),
    };
    if layout.join != PlanJoin::Rendezvous {
        for part in layout.parts() {
            sink.serial(part.backend(), &kernel(part));
        }
        return;
    }
    let gpu = layout.gpu.map(kernel);
    // A single NPU part stays on the stack.
    let mut npu = layout.npu().map(kernel);
    match (npu.next(), npu.next()) {
        (None, _) => sink.parallel(gpu.as_slice(), &[], dominance),
        (Some(one), None) => sink.parallel(gpu.as_slice(), &[one], dominance),
        (Some(a), Some(b)) => {
            let all: Vec<KernelDesc> = [a, b].into_iter().chain(npu).collect();
            sink.parallel(gpu.as_slice(), &all, dominance);
        }
    }
}

/// One phase's solver, its memoized plans, and the dominance its
/// parallel sections rendezvous under.
pub(crate) struct Plans<P> {
    solver: Solver<P>,
    table: PlanTable,
    dominance: Dominance,
}

impl<P: CostProvider> Plans<P> {
    /// The solved plan for a weight Matmul, memoized per `(op, m)`.
    pub(crate) fn plan(&mut self, op: &str, shape: MatmulShape) -> PartitionPlan {
        self.table
            .get_or_solve(&self.solver, op, shape, self.dominance)
            .plan
    }

    /// Walk one phase trace into `sink`: weight Matmuls run their
    /// solved plan, every other op runs serially on the GPU.
    ///
    /// Decoder layers repeat exactly: by the end of layer 1 every plan
    /// is memoized, kernel costs depend only on the SoC configuration,
    /// and the sink's state is integer counters plus its switch
    /// machine. A layer's effect is therefore a function of the switch
    /// state it starts in. Once a layer (layer 2 at the earliest) ends
    /// in the switch state it started in, every later layer repeats it,
    /// so the rest are replayed as copies of its counter delta. A sink
    /// without a checkpoint, or a replay that would overflow, walks
    /// every layer.
    pub(crate) fn walk(
        &mut self,
        trace: &PhaseTrace,
        sink: &mut impl Sink,
    ) -> Result<(), EngineError> {
        self.steps(&trace.prologue, sink)?;
        let mut remaining = trace.layers;
        let mut before: Option<Checkpoint> = None;
        while remaining > 0 {
            self.steps(&trace.layer, sink)?;
            remaining -= 1;
            let after = sink.checkpoint();
            if let (Some(b), Some(a)) = (before, after) {
                if remaining > 0
                    && b.current == a.current
                    && sink.repeat(a.counters.since(b.counters), remaining as u64)
                {
                    break;
                }
            }
            before = after;
        }
        self.steps(&trace.epilogue, sink)
    }

    fn steps(&mut self, ops: &[TraceOp], sink: &mut impl Sink) -> Result<(), EngineError> {
        for op in ops {
            if op.role == OpRole::WeightMatmul {
                let shape = op.shape.ok_or(EngineError::MissingShape { op: op.op })?;
                let plan = self.plan(op.op, shape);
                lower(&plan, shape, self.dominance, sink);
            } else {
                sink.serial(Backend::Gpu, &op.kernel);
            }
        }
        Ok(())
    }
}

/// The Hetero-tensor planner: prefill and decode plans solved over one
/// cost provider and parallel-gain bar, from which n-row verification
/// plans (§4.1.2) are built on demand.
pub(crate) struct Planner<P> {
    provider: P,
    min_parallel_gain: Option<f64>,
    pub(crate) prefill: Plans<P>,
    pub(crate) decode: Plans<P>,
}

impl<P: CostProvider + Clone> Planner<P> {
    /// Planner over `provider`; `min_parallel_gain` overrides the
    /// solver's default bar for choosing a parallel plan.
    pub(crate) fn new(provider: P, min_parallel_gain: Option<f64>) -> Self {
        let plans = |cfg, dominance| Self::plans(&provider, min_parallel_gain, cfg, dominance);
        let prefill = plans(SolverConfig::default(), Dominance::NpuDominant);
        let decode = plans(SolverConfig::decode(1), Dominance::GpuDominant);
        Self {
            provider,
            min_parallel_gain,
            prefill,
            decode,
        }
    }

    /// Plans for the `rows`-row speculative verification shape.
    pub(crate) fn verify(&self, rows: usize) -> Plans<P> {
        Self::plans(
            &self.provider,
            self.min_parallel_gain,
            SolverConfig::decode(rows),
            Dominance::GpuDominant,
        )
    }

    fn plans(
        provider: &P,
        min_parallel_gain: Option<f64>,
        cfg: SolverConfig,
        dominance: Dominance,
    ) -> Plans<P> {
        // Partition plans are part of the *design* and always assume
        // fast synchronization; the runtime's sync mechanism only
        // changes what each rendezvous costs (the Figs. 15/17 ablation
        // varies the mechanism, not the plans).
        let cfg = SolverConfig {
            sync: SyncModel::new(SyncMechanism::Fast),
            min_parallel_gain: min_parallel_gain.unwrap_or(cfg.min_parallel_gain),
            ..cfg
        };
        Plans {
            solver: Solver::new(provider.clone(), cfg),
            table: PlanTable::new(),
            dominance,
        }
    }
}

impl<P: CostProvider> Planner<P> {
    /// Walk the prefill of a `prompt_len`-token prompt into `sink`.
    pub(crate) fn prefill(
        &mut self,
        model: &ModelConfig,
        prompt_len: usize,
        sink: &mut impl Sink,
    ) -> Result<(), EngineError> {
        self.prefill.walk(&prefill_trace(model, prompt_len), sink)
    }

    /// Walk `n_tokens` decode steps after a `prompt_len`-token prompt.
    pub(crate) fn decode(
        &mut self,
        model: &ModelConfig,
        prompt_len: usize,
        n_tokens: usize,
        sink: &mut impl Sink,
    ) -> Result<(), EngineError> {
        for t in 0..n_tokens {
            self.decode
                .walk(&decode_trace(model, prompt_len + t + 1, 1), sink)?;
        }
        Ok(())
    }
}
