//! The two exact shortcuts of a calibration session give the results of
//! the work they skip:
//!
//! - the solver's early exit from the row-cut scan, against an
//!   exhaustive reference solve that prices every cut;
//! - the phase walk's decoder-layer collapse, against the full walk
//!   (an armed event stream forces it).

use hetero_graph::plan::{candidate_plans, next_standard, pipe_plan};
use hetero_profiler::db::BwCondition;
use hetero_profiler::measure::profile_matmuls;
use hetero_profiler::{CostProvider, PredictedProvider, RealExecProvider};
use hetero_soc::power::PowerReport;
use hetero_soc::specs::{project_config, table1};
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_soc::{Backend, SimTime, Soc, SocConfig, SocCounters};
use hetero_solver::{DeratedProvider, PartitionPlan, PlanChoice, Solver, SolverConfig};
use hetero_tensor::rng::splitmix64;
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::DType;
use heterollm::engines::HeteroTensorEngine;

use heterollm::spec_decode::run_speculative_hetero;
use heterollm::{Engine, InferenceSession, ModelConfig, PhaseReport};

// --- the row-cut early exit ------------------------------------------------

fn npu_cost<P: CostProvider>(
    p: &P,
    cfg: &SolverConfig,
    shape: MatmulShape,
    c: BwCondition,
) -> SimTime {
    if cfg.permute_for_npu {
        p.matmul_cost(
            Backend::Npu,
            shape.reversed(),
            cfg.weight_dtype,
            DType::F16,
            c,
        )
    } else {
        p.matmul_cost(Backend::Npu, shape, DType::F16, cfg.weight_dtype, c)
    }
}

fn gpu_cost<P: CostProvider>(
    p: &P,
    cfg: &SolverConfig,
    shape: MatmulShape,
    c: BwCondition,
) -> SimTime {
    p.matmul_cost(Backend::Gpu, shape, DType::F16, cfg.weight_dtype, c)
}

/// The solver's candidate set priced exhaustively: every row cut, no
/// early exit. Of equal costs the first candidate wins, as in
/// `Solver::solve`.
fn reference_solve<P: CostProvider>(
    p: &P,
    cfg: &SolverConfig,
    shape: MatmulShape,
    dominance: Dominance,
) -> PlanChoice {
    use BwCondition::{Contended, Solo};
    let switch = cfg.sync.backend_switch();
    let rendezvous = cfg.sync.rendezvous(dominance);
    let rows = |m| MatmulShape { m, ..shape };
    let mut candidates = vec![(PartitionPlan::GpuOnly, gpu_cost(p, cfg, shape, Solo))];
    match next_standard(shape.m, &cfg.standards) {
        Some(padded_m) => {
            let t = npu_cost(p, cfg, rows(padded_m), Solo) + switch;
            candidates.push((PartitionPlan::NpuOnly { padded_m }, t));
            if cfg.enable_row_cut {
                for c in (cfg.row_align..shape.n).step_by(cfg.row_align) {
                    let npu_shape = MatmulShape::new(padded_m, shape.k, shape.n - c);
                    let npu = npu_cost(p, cfg, npu_shape, Contended);
                    let gpu = gpu_cost(p, cfg, MatmulShape::new(shape.m, shape.k, c), Contended);
                    let plan = if padded_m == shape.m {
                        PartitionPlan::RowCut {
                            gpu_cols: c,
                            padded_m,
                        }
                    } else {
                        PartitionPlan::HybridCut {
                            padded_m,
                            gpu_cols: c,
                        }
                    };
                    candidates.push((plan, npu.max(gpu) + rendezvous));
                }
            }
        }
        None => {
            let pipe = pipe_plan(shape.m, &cfg.standards);
            let t: SimTime = pipe
                .npu_chunks
                .iter()
                .map(|&c| npu_cost(p, cfg, rows(c), Solo))
                .sum();
            let plan = PartitionPlan::NpuPipe {
                chunks: pipe.npu_chunks,
                padded_rows: pipe.padded_rows,
            };
            candidates.push((plan, t + switch));
        }
    }
    if cfg.enable_seq_cut {
        for cand in candidate_plans(shape.m, &cfg.standards) {
            if cand.npu_chunks.is_empty() {
                continue;
            }
            let cond = if cand.margin == 0 { Solo } else { Contended };
            let npu: SimTime = cand
                .npu_chunks
                .iter()
                .map(|&c| npu_cost(p, cfg, rows(c), cond))
                .sum();
            let t = if cand.margin == 0 {
                npu + switch
            } else {
                npu.max(gpu_cost(p, cfg, rows(cand.margin), Contended)) + rendezvous
            };
            let plan = PartitionPlan::SeqCut {
                npu_chunks: cand.npu_chunks,
                gpu_rows: cand.margin,
            };
            candidates.push((plan, t));
        }
    }
    let best = |parallel: bool| {
        candidates
            .iter()
            .filter(|(plan, _)| plan.is_parallel() == parallel)
            .min_by_key(|(_, t)| *t)
            .map(|(plan, t)| PlanChoice {
                plan: plan.clone(),
                est_time: *t,
            })
    };
    let serial = best(false).expect("GPU-only is a candidate");
    let mut choice = match best(true) {
        Some(p)
            if p.est_time.as_secs_f64()
                < serial.est_time.as_secs_f64() * (1.0 - cfg.min_parallel_gain) =>
        {
            p
        }
        _ => serial,
    };
    choice.plan = choice.plan.normalize();
    choice
}

/// `cfg` with every memory bandwidth cap scaled by `factor` (the
/// fleet's silicon-lottery perturbation).
fn scale_bandwidth(mut cfg: SocConfig, factor: f64) -> SocConfig {
    cfg.mem.soc_peak_gbps *= factor;
    cfg.mem.cpu_cap_gbps *= factor;
    cfg.mem.gpu_cap_gbps *= factor;
    cfg.mem.npu_cap_gbps *= factor;
    cfg
}

/// The projectable Table-1 SoCs, bandwidth scaled by `factor`.
fn table1_socs(factor: f64) -> Vec<SocConfig> {
    table1()
        .iter()
        .filter_map(project_config)
        .map(|cfg| scale_bandwidth(cfg, factor))
        .collect()
}

/// Every evaluation model's weight Matmuls plus its LM head.
fn weight_ops() -> Vec<(usize, usize)> {
    let mut ops = Vec::new();
    for model in ModelConfig::evaluation_models() {
        ops.extend(model.matmul_ops().into_iter().map(|(_, k, n)| (k, n)));
        ops.push((model.hidden, model.vocab));
    }
    ops
}

/// Assert `solve` equals the exhaustive reference on every evaluation
/// shape, for both dominances, under the prefill and decode configs.
fn assert_exit_is_exact<P: CostProvider + Clone>(provider: &P) {
    let prefill = SolverConfig::default();
    let decode = SolverConfig::decode(1);
    for (k, n) in weight_ops() {
        for m in [1, 64, 135, 300, 1024, 2100] {
            let shape = MatmulShape::new(m, k, n);
            let configs = if m == 1 {
                vec![&prefill, &decode]
            } else {
                vec![&prefill]
            };
            for cfg in configs {
                let solver = Solver::new(provider.clone(), cfg.clone());
                for dominance in [Dominance::NpuDominant, Dominance::GpuDominant] {
                    assert_eq!(
                        solver.solve(shape, dominance),
                        reference_solve(provider, cfg, shape, dominance),
                        "{shape:?} {dominance:?} standards {:?}",
                        cfg.standards
                    );
                }
            }
        }
    }
}

fn each_soc(mut check: impl FnMut(SocConfig)) {
    for factor in [0.97, 1.0, 1.03] {
        for cfg in table1_socs(factor) {
            check(cfg);
        }
    }
}

#[test]
fn row_cut_exit_matches_exhaustive_scan_real_exec() {
    each_soc(|cfg| assert_exit_is_exact(&RealExecProvider::new(cfg)));
}

#[test]
fn row_cut_exit_matches_exhaustive_scan_derated() {
    each_soc(|cfg| {
        assert_exit_is_exact(&DeratedProvider::new(RealExecProvider::new(cfg), 1_400_000));
    });
}

#[test]
fn row_cut_exit_matches_exhaustive_scan_predicted() {
    each_soc(|cfg| {
        // A coarse permuted grid over every evaluation shape: the tree
        // only has to be a prediction-mode NPU cost, not an accurate one.
        let mut grid = Vec::new();
        for (k, n) in weight_ops() {
            for m in [1, 64, 256, 1024] {
                for cols in [256, n / 2, n - 256, n] {
                    grid.push(MatmulShape::new(cols, k, m));
                }
            }
        }
        let db = profile_matmuls(
            &Soc::new(cfg.clone()),
            &grid,
            &[Backend::Npu],
            DType::Int4,
            DType::F16,
        );
        let provider = PredictedProvider::train(&db, cfg).expect("grid has NPU rows");
        assert_exit_is_exact(&provider);
    });
}

// --- the decoder-layer collapse --------------------------------------------

/// What one session leaves behind: both phase reports, the power
/// report and the SoC's integer counters.
type Outcome = (PhaseReport, PhaseReport, PowerReport, Option<SocCounters>);

/// Run `prompt` + `decode` on `engine`; `full_walk` arms the event
/// stream, which makes the phase walk visit every layer.
fn session(
    mut engine: HeteroTensorEngine,
    prompt: usize,
    decode: usize,
    full_walk: bool,
) -> Outcome {
    if full_walk {
        engine.enable_events();
    }
    let mut s = InferenceSession::from_engine(Box::new(engine));
    let r = s.try_run(prompt, decode).expect("session runs");
    (r.prefill, r.decode, r.power, s.engine().soc().counters())
}

fn assert_collapse_is_exact(make: impl Fn() -> HeteroTensorEngine, prompt: usize, decode: usize) {
    let collapsed = session(make(), prompt, decode, false);
    let full = session(make(), prompt, decode, true);
    assert!(collapsed.3.is_some(), "counters are readable");
    assert_eq!(collapsed, full, "prompt {prompt} decode {decode}");
}

#[test]
fn layer_collapse_matches_full_walk_on_evaluation_models() {
    for model in ModelConfig::evaluation_models() {
        for sync in [SyncMechanism::Fast, SyncMechanism::Driver] {
            for prompt in [1, 64, 135, 300, 1024] {
                assert_collapse_is_exact(|| HeteroTensorEngine::new(&model, sync), prompt, 4);
            }
        }
    }
}

#[test]
fn layer_collapse_matches_full_walk_on_device_calibration_configs() {
    let model = ModelConfig::internlm_1_8b();
    let classes = table1_socs(1.0);
    for device in 0..50u64 {
        let h = splitmix64(0xca11_b8a7 ^ device);
        let factor = 0.97 + (h % 60_001) as f64 / 1e6;
        let cfg = scale_bandwidth(classes[device as usize % classes.len()].clone(), factor);
        assert_collapse_is_exact(
            || HeteroTensorEngine::with_soc_config(&model, cfg.clone()),
            64,
            4,
        );
    }
}

#[test]
fn layer_collapse_matches_full_walk_on_few_layers() {
    for layers in [1, 2, 3] {
        let model = ModelConfig {
            layers,
            ..ModelConfig::llama_3b()
        };
        for prompt in [1, 64, 300] {
            assert_collapse_is_exact(
                || HeteroTensorEngine::new(&model, SyncMechanism::Fast),
                prompt,
                3,
            );
        }
    }
}

#[test]
fn soc_trace_refuses_the_collapse() {
    let model = ModelConfig::llama_8b();
    let traced = |full_walk: bool| {
        let mut e = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        e.soc_mut().enable_trace();
        if full_walk {
            e.enable_events();
        }
        e.try_prefill(300).expect("prefill");
        e.try_decode(300, 4).expect("decode");
        let trace: Vec<_> = e
            .soc()
            .trace()
            .iter()
            .map(|ev| (ev.backend, ev.start, ev.duration))
            .collect();
        (trace, e.soc().clock())
    };
    let (trace, clock) = traced(false);
    let (full_trace, full_clock) = traced(true);
    assert_eq!(trace.len(), full_trace.len());
    assert_eq!(trace, full_trace);
    assert_eq!(clock, full_clock);
}

#[test]
fn layer_collapse_matches_full_walk_in_speculative_decoding() {
    let model = ModelConfig::llama_8b();
    let commits = [3, 1, 4, 1, 5];
    let run = |full_walk: bool| {
        let mut e = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        if full_walk {
            e.enable_events();
        }
        let r = run_speculative_hetero(&mut e, 256, 5, &commits).expect("verify steps run");
        (r.elapsed, e.soc().counters())
    };
    assert_eq!(run(false), run(true));
}
