//! Table 2: capability matrix of mobile-side inference frameworks.

use hetero_bench::{save_json, Table};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct FrameworkRow {
    framework: &'static str,
    cpu: &'static str,
    gpu: &'static str,
    npu: &'static str,
    npu_gemm: &'static str,
    sparse_independent: bool,
    accuracy: &'static str,
    performance: &'static str,
}

fn rows() -> Vec<FrameworkRow> {
    vec![
        FrameworkRow {
            framework: "MLLM-NPU",
            cpu: "INT4 / FP16/32",
            gpu: "-",
            npu: "INT8",
            npu_gemm: "INT",
            sparse_independent: false,
            accuracy: "depends on activation",
            performance: "High",
        },
        FrameworkRow {
            framework: "Qualcomm-AI",
            cpu: "INT4/8 / W4A16",
            gpu: "FP16",
            npu: "INT4/8",
            npu_gemm: "INT",
            sparse_independent: true,
            accuracy: "decrease",
            performance: "High",
        },
        FrameworkRow {
            framework: "MLC",
            cpu: "W4A16",
            gpu: "W4A16",
            npu: "-",
            npu_gemm: "-",
            sparse_independent: true,
            accuracy: "preserved",
            performance: "Low",
        },
        FrameworkRow {
            framework: "Llama.cpp",
            cpu: "INT4/8 / W4A16",
            gpu: "W4A16",
            npu: "-",
            npu_gemm: "-",
            sparse_independent: true,
            accuracy: "preserved",
            performance: "Low",
        },
        FrameworkRow {
            framework: "Onnxruntime",
            cpu: "FP16/32",
            gpu: "-",
            npu: "INT8/16",
            npu_gemm: "INT",
            sparse_independent: true,
            accuracy: "decrease",
            performance: "Medium",
        },
        FrameworkRow {
            framework: "MNN",
            cpu: "INT8 / W4A16",
            gpu: "W4A16",
            npu: "-",
            npu_gemm: "-",
            sparse_independent: true,
            accuracy: "preserved",
            performance: "Medium",
        },
        FrameworkRow {
            framework: "HeteroLLM (ours)",
            cpu: "INT8 / W4A16",
            gpu: "INT8 / W4A16",
            npu: "INT4/8 / W4A16",
            npu_gemm: "FLOAT",
            sparse_independent: true,
            accuracy: "preserved",
            performance: "High",
        },
    ]
}

fn main() {
    hetero_bench::cli(
        "table2_frameworks",
        "Table 2: capability matrix of mobile-side inference frameworks",
        &[],
        |_| (),
    );
    println!("Table 2: Mobile-side inference engine capability matrix\n");
    let rows = rows();
    let mut t = Table::new(&[
        "Framework",
        "CPU",
        "GPU",
        "NPU",
        "NPU GEMM",
        "Sparse-indep",
        "Accuracy",
        "Perf",
    ]);
    for r in &rows {
        t.row(&[
            r.framework.into(),
            r.cpu.into(),
            r.gpu.into(),
            r.npu.into(),
            r.npu_gemm.into(),
            if r.sparse_independent { "yes" } else { "no" }.into(),
            r.accuracy.into(),
            r.performance.into(),
        ]);
    }
    t.print();
    println!("\nOnly HeteroLLM runs FLOAT GEMMs on the NPU without sparsity reliance.");
    save_json("table2_frameworks", &rows);
}
