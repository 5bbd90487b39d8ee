//! Figure 6: total memory bandwidth with single and multiple
//! processors under decoding workloads.

use hetero_bench::{fmt, print_claims, save_json, Claim, Table};
use hetero_soc::memory::MemorySystem;
use hetero_soc::Backend;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    combo: String,
    total_gbps: f64,
}

fn main() {
    hetero_bench::cli(
        "fig06_bandwidth",
        "Figure 6: total memory bandwidth with single and multiple compute units",
        &[],
        |_| (),
    );
    println!("Figure 6: achievable memory bandwidth per processor combination\n");
    let mem = MemorySystem::default();
    let combos: Vec<(&str, Vec<Backend>)> = vec![
        ("CPU", vec![Backend::Cpu]),
        ("GPU", vec![Backend::Gpu]),
        ("NPU", vec![Backend::Npu]),
        ("GPU+NPU", vec![Backend::Gpu, Backend::Npu]),
        (
            "CPU+GPU+NPU",
            vec![Backend::Cpu, Backend::Gpu, Backend::Npu],
        ),
    ];
    let mut t = Table::new(&["combination", "bandwidth GB/s", "% of SoC peak"]);
    let mut points = Vec::new();
    for (name, set) in &combos {
        let bw = mem.total_bw(set);
        t.row(&[
            name.to_string(),
            fmt(bw),
            format!("{:.0}%", bw / mem.soc_peak_gbps * 100.0),
        ]);
        points.push(Point {
            combo: name.to_string(),
            total_gbps: bw,
        });
    }
    t.print();
    println!(
        "\nSoC peak (dotted line in the paper): {} GB/s",
        fmt(mem.soc_peak_gbps)
    );

    print_claims(
        "Paper claims (§3.3, §5.3)",
        &[
            Claim {
                what: "GPU alone (decode) GB/s".into(),
                paper: 43.3,
                measured: points[1].total_gbps,
                rel_tol: 0.05,
            },
            Claim {
                what: "GPU+NPU combined GB/s".into(),
                paper: 59.1,
                measured: points[3].total_gbps,
                rel_tol: 0.05,
            },
            Claim {
                what: "single processor ≤ 45 GB/s".into(),
                paper: 45.0,
                measured: points[..3]
                    .iter()
                    .map(|p| p.total_gbps)
                    .fold(0.0f64, f64::max),
                rel_tol: 0.05,
            },
        ],
    );
    save_json("fig06_bandwidth", &points);
}
