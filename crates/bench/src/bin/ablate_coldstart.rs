//! Extension experiment: cold start vs first-request latency.
//!
//! Graph-preparation strategy trades launch time against first-request
//! latency (§5.2.2's "overhead in graph loading"): compiling every
//! standard graph at launch costs seconds before the app is usable;
//! Online-prepare launches instantly but stalls the first misaligned
//! request behind runtime compilation.

use hetero_bench::{fmt, save_json, Table};
use hetero_soc::sync::SyncMechanism;
use heterollm::coldstart::{cold_start, GraphPrep};
use heterollm::{EngineKind, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    strategy: String,
    launch_s: f64,
    first_request_s: f64,
    launch_plus_first_s: f64,
}

fn main() {
    hetero_bench::cli(
        "ablate_coldstart",
        "Extension experiment: cold start vs first-request latency",
        &[],
        |_| (),
    );
    println!("Extension: cold start vs first request (Llama-8B, first prompt = 300 tokens)\n");
    let model = ModelConfig::llama_8b();

    let cases: [(&str, GraphPrep, EngineKind); 3] = [
        (
            "compile-at-launch",
            GraphPrep::CompileAllStandards,
            EngineKind::HeteroTensor,
        ),
        (
            "cached-graphs",
            GraphPrep::LoadCachedStandards,
            EngineKind::HeteroTensor,
        ),
        (
            "online-prepare",
            GraphPrep::DecodeOnly,
            EngineKind::NpuOnlinePrepare,
        ),
    ];

    let mut t = Table::new(&["strategy", "launch", "first request", "launch + first"]);
    let mut points = Vec::new();
    for (name, prep, engine_kind) in cases {
        let launch = cold_start(&model, prep);
        let mut engine = engine_kind.build(&model, SyncMechanism::Fast);
        let first = engine.prefill(300).elapsed;
        let total = launch.total + first;
        t.row(&[
            name.into(),
            format!("{}", launch.total),
            format!("{first}"),
            format!("{total}"),
        ]);
        points.push(Point {
            strategy: name.into(),
            launch_s: launch.total.as_secs_f64(),
            first_request_s: first.as_secs_f64(),
            launch_plus_first_s: total.as_secs_f64(),
        });
    }
    t.print();

    let p = |s: &str| points.iter().find(|x| x.strategy == s).expect("strategy");
    let compile = p("compile-at-launch");
    let cached = p("cached-graphs");
    let online = p("online-prepare");
    // Online-prepare launches fastest but pays at request time; cached
    // graphs dominate end to end.
    assert!(online.launch_s < compile.launch_s);
    assert!(online.first_request_s > compile.first_request_s);
    assert!(cached.launch_plus_first_s <= compile.launch_plus_first_s);
    println!(
        "\ncached graphs reach the first answer in {} s vs {} s compile-at-launch and {} s online-prepare",
        fmt(cached.launch_plus_first_s),
        fmt(compile.launch_plus_first_s),
        fmt(online.launch_plus_first_s)
    );
    save_json("ablate_coldstart", &points);
}
