//! Figure 4: the stage performance of NPUs.
//!
//! Matmul latency over a fine-grained sequence sweep: every dimension
//! is padded to the 32-wide systolic tile, so latency is a step
//! function — all lengths inside one 32-bucket cost the same.

use hetero_bench::plot::{print_plot, Series};
use hetero_bench::{save_json, Table};
use hetero_soc::calib::NPU_MAX_BW_GBPS;
use hetero_soc::npu::NpuModel;
use hetero_tensor::shape::MatmulShape;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    m: usize,
    time_us: f64,
}

fn main() {
    hetero_bench::cli(
        "fig04_npu_stage",
        "Figure 4: the stage performance of NPUs",
        &[],
        |_| (),
    );
    println!("Figure 4: NPU Matmul latency vs sequence rows (stage performance)\n");
    let npu = NpuModel::default();
    let (k, n) = (4096, 4096);
    let mut points = Vec::new();
    let mut t = Table::new(&["m", "time (us)", "bucket"]);
    for m in (8..=160).step_by(8) {
        let timing = npu.matmul_timing(MatmulShape::new(m, k, n), 16, 16, 16, NPU_MAX_BW_GBPS);
        let us = timing.total.as_micros_f64();
        t.row(&[
            m.to_string(),
            format!("{us:.1}"),
            (m.div_ceil(32) * 32).to_string(),
        ]);
        points.push(Point { m, time_us: us });
    }
    t.print();
    print_plot(
        "NPU Matmul latency (us) vs m — the stage staircase:",
        &[Series::new(
            "latency",
            points.iter().map(|p| (p.m as f64, p.time_us)).collect(),
        )],
        64,
        12,
    );

    // Verify the staircase: within a 32-bucket, latency is constant;
    // across buckets it steps up.
    let lat = |m: usize| {
        npu.matmul_timing(MatmulShape::new(m, k, n), 16, 16, 16, NPU_MAX_BW_GBPS)
            .total
            .as_nanos()
    };
    let mut steps = 0;
    let mut flats = 0;
    for m in 1..=256usize {
        if lat(m) == lat(((m - 1) / 32) * 32 + 1) {
            flats += 1;
        }
        if m % 32 == 1 && m > 1 && lat(m) > lat(m - 1) {
            steps += 1;
        }
    }
    println!("\nstage verification: {flats}/256 lengths share their bucket latency; {steps} upward steps at 32-boundaries");
    assert_eq!(flats, 256, "stage performance must be exactly bucketed");
    save_json("fig04_npu_stage", &points);
}
