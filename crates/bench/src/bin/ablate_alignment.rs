//! Ablation: partition-alignment granularity.
//!
//! §4.3 prunes the search space by aligning row partitions to 256 and
//! sequence partitions to 32. This ablation sweeps the row alignment
//! and reports both solution quality and search-space size — showing
//! the paper's choice loses almost nothing while shrinking the search
//! by an order of magnitude.

use hetero_bench::{fmt, save_json, Table};
use hetero_profiler::RealExecProvider;
use hetero_soc::sync::Dominance;
use hetero_soc::SocConfig;
use hetero_solver::{Solver, SolverConfig};
use hetero_tensor::shape::MatmulShape;
use heterollm::ModelConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    align: usize,
    op: String,
    est_us: f64,
    candidates: usize,
}

fn main() {
    hetero_bench::cli(
        "ablate_alignment",
        "Ablation: partition-alignment granularity",
        &[],
        |_| (),
    );
    println!("Ablation: row-partition alignment (Llama-8B, seq 256, prefill)\n");
    let model = ModelConfig::llama_8b();
    let mut t = Table::new(&["align", "operator", "est latency", "row-cut candidates"]);
    let mut points = Vec::new();
    for align in [32usize, 64, 128, 256, 512, 1024] {
        for (name, k, n) in model.matmul_ops() {
            let solver = Solver::new(
                RealExecProvider::new(SocConfig::snapdragon_8gen3()),
                SolverConfig {
                    row_align: align,
                    ..SolverConfig::default()
                },
            );
            let shape = MatmulShape::new(256, k, n);
            let choice = solver.solve(shape, Dominance::NpuDominant);
            let candidates = (n - 1) / align;
            t.row(&[
                align.to_string(),
                name.to_string(),
                format!("{} us", fmt(choice.est_time.as_micros_f64())),
                candidates.to_string(),
            ]);
            points.push(Point {
                align,
                op: name.to_string(),
                est_us: choice.est_time.as_micros_f64(),
                candidates,
            });
        }
    }
    t.print();

    // Quality loss of 256-alignment vs the finest (32) search.
    let mut max_loss: f64 = 0.0;
    for (name, _, _) in model.matmul_ops() {
        let at = |align: usize| {
            points
                .iter()
                .find(|p| p.align == align && p.op == name)
                .map(|p| p.est_us)
                .expect("point")
        };
        let loss = at(256) / at(32) - 1.0;
        max_loss = max_loss.max(loss);
        println!(
            "{name}: 256-aligned vs 32-aligned latency: {:+.2}%",
            loss * 100.0
        );
    }
    let shrink = points
        .iter()
        .filter(|p| p.align == 32)
        .map(|p| p.candidates)
        .sum::<usize>() as f64
        / points
            .iter()
            .filter(|p| p.align == 256)
            .map(|p| p.candidates)
            .sum::<usize>()
            .max(1) as f64;
    println!(
        "\nsearch-space shrink at 256 vs 32: {shrink:.1}x; worst quality loss {:.2}%",
        max_loss * 100.0
    );
    assert!(max_loss < 0.05, "256-alignment should cost <5% latency");
    assert!(
        shrink > 6.0,
        "alignment should prune the search substantially"
    );
    save_json("ablate_alignment", &points);
}
