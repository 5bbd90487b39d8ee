//! Golden-file test pinning the three static views of a partition
//! plan: the sync schedule the analyzer checks, the per-event and
//! closed-form cost intervals the solver certifies, and the region
//! table the footprint bound folds.
//!
//! The corpus is every plan the Snapdragon 8 Gen 3 solvers return for
//! the evaluation models' weight Matmuls — prefill (`SolverConfig::
//! default()`, NPU-dominant) at m ∈ {1, 64, 135, 300, 1024, 2100} and
//! decode (`SolverConfig::decode(1)`, GPU-dominant) at m = 1 — plus
//! hand-built plans on the (300, 4096, 4096) shape, degenerate forms
//! included. Each plan prints its schedule events (label, backend,
//! kind, waits), its cost intervals under both dominances in integer
//! nanoseconds, and its region table, so any change to how a plan is
//! laid out is an explicit, reviewed diff. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p hetero-analyze --test plan_layouts`.

use std::fmt::Write as _;

use hetero_analyze::SyncSchedule;
use hetero_profiler::{CostInterval, RealExecProvider};
use hetero_soc::sync::Dominance;
use hetero_soc::SocConfig;
use hetero_solver::{PartitionPlan, RegionTable, Solver, SolverConfig};
use hetero_tensor::shape::MatmulShape;
use heterollm::ModelConfig;

fn solver(cfg: SolverConfig) -> Solver<RealExecProvider> {
    Solver::new(RealExecProvider::new(SocConfig::snapdragon_8gen3()), cfg)
}

fn interval(iv: CostInterval) -> String {
    format!("[{}, {}]", iv.lo.as_nanos(), iv.hi.as_nanos())
}

/// Every view of `plan` on `shape`, priced by `solver`.
fn render(
    out: &mut String,
    case: &str,
    solver: &Solver<RealExecProvider>,
    plan: &PartitionPlan,
    shape: MatmulShape,
) {
    writeln!(
        out,
        "== {case} shape=({}, {}, {}) {plan:?}",
        shape.m, shape.k, shape.n
    )
    .unwrap();
    for (i, e) in SyncSchedule::for_plan(plan).events.iter().enumerate() {
        writeln!(
            out,
            "  event {i}: {:?} {:?} {:?} waits={:?}",
            e.label, e.backend, e.kind, e.waits_on
        )
        .unwrap();
    }
    for dominance in [Dominance::NpuDominant, Dominance::GpuDominant] {
        let events: Vec<String> = solver
            .event_cost_intervals(plan, shape, dominance)
            .into_iter()
            .map(interval)
            .collect();
        writeln!(
            out,
            "  cost {dominance:?}: events=[{}] plan={}",
            events.join(", "),
            interval(solver.plan_cost_interval(plan, shape, dominance))
        )
        .unwrap();
    }
    let table = RegionTable::for_plan(plan, shape);
    writeln!(out, "  regions: steps={}", table.steps).unwrap();
    for r in &table.regions {
        writeln!(
            out,
            "    {:?} offset={} bytes={} live={}..={} readers={:?}",
            r.label, r.offset, r.bytes, r.live_from, r.live_until, r.readers
        )
        .unwrap();
    }
}

fn corpus() -> String {
    let mut out = String::new();
    let prefill = solver(SolverConfig::default());
    let decode = solver(SolverConfig::decode(1));
    for model in ModelConfig::evaluation_models() {
        for (op, k, n) in model.matmul_ops() {
            for m in [1usize, 64, 135, 300, 1024, 2100] {
                let shape = MatmulShape::new(m, k, n);
                let plan = prefill.solve(shape, Dominance::NpuDominant).plan;
                let case = format!("{}/{op} prefill m={m}", model.name);
                render(&mut out, &case, &prefill, &plan, shape);
            }
            let shape = MatmulShape::new(1, k, n);
            let plan = decode.solve(shape, Dominance::GpuDominant).plan;
            let case = format!("{}/{op} decode m=1", model.name);
            render(&mut out, &case, &decode, &plan, shape);
        }
    }
    let shape = MatmulShape::new(300, 4096, 4096);
    for plan in [
        PartitionPlan::GpuOnly,
        PartitionPlan::NpuOnly { padded_m: 512 },
        PartitionPlan::NpuPipe {
            chunks: vec![256, 64],
            padded_rows: 20,
        },
        PartitionPlan::RowCut {
            gpu_cols: 1024,
            padded_m: 512,
        },
        PartitionPlan::HybridCut {
            padded_m: 512,
            gpu_cols: 1024,
        },
        PartitionPlan::SeqCut {
            npu_chunks: vec![256, 32],
            gpu_rows: 12,
        },
        PartitionPlan::SeqCut {
            npu_chunks: vec![256, 32],
            gpu_rows: 0,
        },
        PartitionPlan::RowCut {
            gpu_cols: 0,
            padded_m: 512,
        },
        PartitionPlan::HybridCut {
            padded_m: 512,
            gpu_cols: 0,
        },
        PartitionPlan::SeqCut {
            npu_chunks: vec![],
            gpu_rows: 300,
        },
        PartitionPlan::NpuPipe {
            chunks: vec![],
            padded_rows: 0,
        },
    ] {
        render(&mut out, "hand-built", &prefill, &plan, shape);
    }
    out
}

#[test]
fn plan_layouts_are_golden() {
    let text = corpus();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plan_layouts.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file checked in");
    assert_eq!(
        text, golden,
        "plan layout views changed; review and regenerate with UPDATE_GOLDEN=1"
    );
}
