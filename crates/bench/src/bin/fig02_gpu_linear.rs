//! Figure 2: GPU performance with varying tensor sizes.
//!
//! Reproduces GPU-① (linear performance): effective FLOPS grows with
//! tensor size while memory/launch bound, then plateaus at the
//! achieved-TFLOPS ceiling once compute bound.

use hetero_bench::plot::{print_plot, Series};
use hetero_bench::{fmt, print_claims, save_json, Claim, Table};
use hetero_soc::calib::GPU_MAX_BW_GBPS;
use hetero_soc::gpu::GpuModel;
use hetero_soc::KernelDesc;
use hetero_tensor::shape::MatmulShape;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    size: usize,
    time_us: f64,
    tflops: f64,
}

fn main() {
    hetero_bench::cli(
        "fig02_gpu_linear",
        "Figure 2: GPU performance with varying tensor sizes",
        &[],
        |_| (),
    );
    println!("Figure 2: GPU effective throughput vs square GEMM size\n");
    let gpu = GpuModel::default();
    let mut t = Table::new(&["size", "time", "TFLOPS"]);
    let mut points = Vec::new();
    for exp in 4..=12 {
        let n = 1usize << exp;
        let k = KernelDesc::matmul_f16(MatmulShape::new(n, n, n));
        let time = gpu.kernel_time(&k, GPU_MAX_BW_GBPS);
        let tflops = gpu.effective_tflops(&k, GPU_MAX_BW_GBPS);
        t.row(&[n.to_string(), time.to_string(), fmt(tflops)]);
        points.push(Point {
            size: n,
            time_us: time.as_micros_f64(),
            tflops,
        });
    }
    t.print();
    print_plot(
        "effective TFLOPS vs log2(size) — linear region then plateau:",
        &[Series::new(
            "GPU TFLOPS",
            points
                .iter()
                .map(|p| ((p.size as f64).log2(), p.tflops))
                .collect(),
        )],
        60,
        12,
    );

    // Structural shape: throughput must grow monotonically through the
    // linear region, then flatten.
    let grow = points.windows(2).take(5).all(|w| w[1].tflops > w[0].tflops);
    let plateau = points[points.len() - 1].tflops / points[points.len() - 3].tflops;
    println!("\nlinear region monotone: {grow}; plateau flatness (4096 vs 1024): {plateau:.3}");
    assert!(grow, "throughput must grow with size in the linear region");

    let large = points.last().expect("points");
    print_claims(
        "Paper claims (§3.1)",
        &[
            Claim {
                what: "large-GEMM achieved TFLOPS (≈1.0 actual)".into(),
                paper: 1.0,
                measured: large.tflops,
                rel_tol: 0.15,
            },
            Claim {
                what: "plateau: 4096-size / 1024-size throughput (flat)".into(),
                paper: 1.0,
                measured: plateau,
                rel_tol: 0.10,
            },
        ],
    );
    save_json("fig02_gpu_linear", &points);
}
