//! Ablation: partition-strategy families.
//!
//! Disables row-cutting and/or sequence-length-cutting in the solver
//! and measures the solved latency for each per-layer operator — the
//! design-space study behind §4.1's three strategies.

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
    op: String,
    seq: usize,
    variant: String,
    est_us: f64,
    plan: String,
}

fn solver(row: bool, seq: bool) -> Solver<RealExecProvider> {
    Solver::new(
        RealExecProvider::new(SocConfig::snapdragon_8gen3()),
        SolverConfig {
            enable_row_cut: row,
            enable_seq_cut: seq,
            ..SolverConfig::default()
        },
    )
}

fn main() {
    hetero_bench::cli(
        "ablate_strategies",
        "Ablation: partition-strategy families",
        &[],
        |_| (),
    );
    println!("Ablation: strategy families (Llama-8B, prefill)\n");
    let model = ModelConfig::llama_8b();
    let variants: [(&str, bool, bool); 4] = [
        ("serial-only", false, false),
        ("row-cut only", true, false),
        ("seq-cut only", false, true),
        ("full (HeteroLLM)", true, true),
    ];
    let mut points = Vec::new();
    for seq in [256usize, 300, 525] {
        println!("sequence length {seq}:");
        let mut t = Table::new(&[
            "operator",
            "serial-only",
            "row-cut only",
            "seq-cut only",
            "full",
        ]);
        for (name, k, n) in model.matmul_ops() {
            let shape = MatmulShape::new(seq, k, n);
            let mut cells = vec![name.to_string()];
            for (vname, row, seqc) in variants {
                let choice = solver(row, seqc).solve(shape, Dominance::NpuDominant);
                cells.push(format!(
                    "{} ({})",
                    fmt(choice.est_time.as_micros_f64()),
                    choice.plan.label()
                ));
                points.push(Point {
                    op: name.to_string(),
                    seq,
                    variant: vname.to_string(),
                    est_us: choice.est_time.as_micros_f64(),
                    plan: choice.plan.label().to_string(),
                });
            }
            t.row(&cells);
        }
        t.print();
        println!();
    }

    // Structural conclusions.
    let est = |op: &str, seq: usize, variant: &str| {
        points
            .iter()
            .find(|p| p.op == op && p.seq == seq && p.variant == variant)
            .map(|p| p.est_us)
            .expect("point")
    };
    // Row-cutting is what rescues FFN-down at aligned lengths.
    assert!(est("ffn_down", 256, "row-cut only") < est("ffn_down", 256, "serial-only") * 0.8);
    // Seq-cutting is what rescues misaligned lengths on NPU-friendly ops.
    assert!(est("qkv", 300, "seq-cut only") < est("qkv", 300, "serial-only") * 1.01);
    // The full solver is never worse than any restricted variant.
    for p in &points {
        let full = est(&p.op, p.seq, "full (HeteroLLM)");
        assert!(
            full <= p.est_us * 1.001,
            "{}@{} {}: full {full} > {}",
            p.op,
            p.seq,
            p.variant,
            p.est_us
        );
    }
    println!("full solver dominates every restricted variant [verified]");
    save_json("ablate_strategies", &points);
}
