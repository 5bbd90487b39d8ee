//! Property-based tests of the partition solver.

use std::sync::OnceLock;

use hetero_profiler::db::BwCondition;
use hetero_profiler::measure::profile_matmuls;
use hetero_profiler::{CostProvider, PredictedProvider, RealExecProvider};
use hetero_soc::specs::{project_config, table1};
use hetero_soc::sync::Dominance;
use hetero_soc::{Backend, SimTime, Soc, SocConfig};
use hetero_solver::{DeratedProvider, PartitionPlan, Solver, SolverConfig};
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::DType;
use proptest::prelude::*;

fn solver() -> Solver<RealExecProvider> {
    Solver::new(
        RealExecProvider::new(SocConfig::snapdragon_8gen3()),
        SolverConfig::default(),
    )
}

/// The projectable Table-1 SoCs with every memory bandwidth cap scaled
/// by 0.97, 1.00 and 1.03 (the fleet's silicon-lottery range).
fn soc_configs() -> Vec<SocConfig> {
    let mut out = Vec::new();
    for class in table1().iter().filter_map(project_config) {
        for factor in [0.97, 1.0, 1.03] {
            let mut cfg = class.clone();
            cfg.mem.soc_peak_gbps *= factor;
            cfg.mem.cpu_cap_gbps *= factor;
            cfg.mem.gpu_cap_gbps *= factor;
            cfg.mem.npu_cap_gbps *= factor;
            out.push(cfg);
        }
    }
    out
}

/// One prediction-mode provider per [`soc_configs`] entry. Its NPU
/// tree is trained on a small grid: only its GPU side is under test.
fn predicted_providers() -> &'static [PredictedProvider] {
    static PROVIDERS: OnceLock<Vec<PredictedProvider>> = OnceLock::new();
    PROVIDERS.get_or_init(|| {
        let grid: Vec<MatmulShape> = [1, 64, 256]
            .into_iter()
            .flat_map(|m| [1024, 2048, 4096].map(|n| MatmulShape::new(n, 2048, m)))
            .collect();
        soc_configs()
            .into_iter()
            .map(|cfg| {
                let db = profile_matmuls(
                    &Soc::new(cfg.clone()),
                    &grid,
                    &[Backend::Npu],
                    DType::Int4,
                    DType::F16,
                );
                PredictedProvider::train(&db, cfg).expect("grid has NPU rows")
            })
            .collect()
    })
}

fn arb_shape() -> impl Strategy<Value = MatmulShape> {
    // LLM-plausible dims: sequence 1..1100, hidden/ffn-like k and n.
    (
        1usize..1100,
        prop_oneof![Just(2048usize), Just(4096), Just(8192), Just(14336)],
        prop_oneof![
            Just(2048usize),
            Just(4096),
            Just(6144),
            Just(14336),
            Just(28672)
        ],
    )
        .prop_map(|(m, k, n)| MatmulShape::new(m, k, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_always_covers_the_problem(shape in arb_shape()) {
        let choice = solver().solve(shape, Dominance::NpuDominant);
        match &choice.plan {
            PartitionPlan::GpuOnly => {}
            PartitionPlan::NpuOnly { padded_m } => prop_assert!(*padded_m >= shape.m),
            PartitionPlan::NpuPipe { chunks, padded_rows } => {
                let rows: usize = chunks.iter().sum();
                prop_assert_eq!(rows - padded_rows, shape.m);
            }
            PartitionPlan::RowCut { gpu_cols, padded_m }
            | PartitionPlan::HybridCut { gpu_cols, padded_m } => {
                prop_assert!(*gpu_cols > 0 && *gpu_cols < shape.n);
                prop_assert!(*padded_m >= shape.m);
            }
            PartitionPlan::SeqCut { npu_chunks, gpu_rows } => {
                let covered: usize = npu_chunks.iter().sum::<usize>() + gpu_rows;
                prop_assert_eq!(covered, shape.m);
            }
        }
    }

    #[test]
    fn estimate_never_worse_than_either_backend_alone(shape in arb_shape()) {
        let s = solver();
        let choice = s.solve(shape, Dominance::NpuDominant);
        let provider = RealExecProvider::new(SocConfig::snapdragon_8gen3());
        let gpu_only = provider.matmul_cost(
            Backend::Gpu, shape, DType::F16, DType::Int4, BwCondition::Solo,
        );
        prop_assert!(choice.est_time <= gpu_only + SimTime::from_micros(1));
    }

    #[test]
    fn row_cuts_respect_alignment(shape in arb_shape()) {
        let choice = solver().solve(shape, Dominance::NpuDominant);
        if let PartitionPlan::RowCut { gpu_cols, .. }
        | PartitionPlan::HybridCut { gpu_cols, .. } = choice.plan
        {
            prop_assert_eq!(gpu_cols % 256, 0, "row cut {} misaligned", gpu_cols);
        }
    }

    #[test]
    fn seq_chunks_are_standard_sizes(shape in arb_shape()) {
        let choice = solver().solve(shape, Dominance::NpuDominant);
        if let PartitionPlan::SeqCut { npu_chunks, .. } = &choice.plan {
            for c in npu_chunks {
                prop_assert!(
                    hetero_soc::calib::STANDARD_GRAPH_SIZES.contains(c),
                    "chunk {c} is not a standard graph size"
                );
            }
        }
    }

    #[test]
    fn max_threshold_forbids_parallelism(shape in arb_shape()) {
        // min_parallel_gain = 1.0 can never be met (a parallel plan
        // cannot be infinitely better), so the solver must go serial.
        let s = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            SolverConfig { min_parallel_gain: 1.0, ..SolverConfig::default() },
        );
        let choice = s.solve(shape, Dominance::NpuDominant);
        prop_assert!(!choice.plan.is_parallel(), "{:?}", choice.plan);
    }

    #[test]
    fn decode_plans_cover_decode_shapes(
        k in prop_oneof![Just(2048usize), Just(4096), Just(14336)],
        n in prop_oneof![Just(2048usize), Just(4096), Just(28672)],
    ) {
        let s = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            SolverConfig::decode(1),
        );
        let choice = s.solve(MatmulShape::new(1, k, n), Dominance::GpuDominant);
        // Decode is memory-bound: a parallel bandwidth-aggregating plan
        // or a serial plan, never padding beyond the decode graph.
        if let PartitionPlan::NpuOnly { padded_m } = choice.plan {
            prop_assert_eq!(padded_m, 1);
        }
    }

    #[test]
    fn solving_is_deterministic(shape in arb_shape()) {
        let a = solver().solve(shape, Dominance::NpuDominant);
        let b = solver().solve(shape, Dominance::NpuDominant);
        prop_assert_eq!(a, b);
    }

    /// The `CostProvider` contract the solver's row-cut scan stops
    /// early on: GPU cost never falls as `n` grows, for every provider.
    #[test]
    fn gpu_cost_is_nondecreasing_in_n(
        soc in 0usize..9,
        m in 1usize..2200,
        k in prop_oneof![Just(2048usize), Just(3072), Just(4096), Just(14336)],
        n in 1usize..130_000,
        dn in 1usize..4096,
        weight in prop_oneof![Just(DType::Int4), Just(DType::Int8), Just(DType::F16)],
        contended in proptest::bool::ANY,
        derate_ppm in 1_000_000u64..3_000_000,
    ) {
        let cfg = soc_configs().swap_remove(soc);
        let condition = if contended { BwCondition::Contended } else { BwCondition::Solo };
        let real = RealExecProvider::new(cfg);
        let derated = DeratedProvider::new(real.clone(), derate_ppm);
        let predicted = &predicted_providers()[soc];
        let providers: [&dyn CostProvider; 3] = [&real, predicted, &derated];
        for provider in providers {
            let cost = |n| {
                provider.matmul_cost(
                    Backend::Gpu,
                    MatmulShape::new(m, k, n),
                    DType::F16,
                    weight,
                    condition,
                )
            };
            prop_assert!(cost(n) <= cost(n + dn), "n {} -> {}", n, n + dn);
        }
    }
}
