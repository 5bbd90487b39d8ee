//! Extension experiment: sustained-load thermal throttling.
//!
//! A phone cannot dissipate a GPU-only engine's power draw
//! indefinitely. This experiment combines each engine's measured decode
//! power with the passive-chassis thermal model: HeteroLLM's
//! NPU-dominant execution stays inside the thermal envelope, while the
//! GPU-only engine throttles within minutes — so the *sustained* decode
//! advantage exceeds the cold-start advantage the paper reports.

use hetero_bench::plot::{print_plot, Series};
use hetero_bench::{fmt, save_json, Table};
use hetero_soc::sync::SyncMechanism;
use hetero_soc::thermal::ThermalModel;
use heterollm::{EngineKind, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    engine: String,
    power_w: f64,
    cold_tokens_per_sec: f64,
    sustained_factor: f64,
    sustained_tokens_per_sec: f64,
    steady_temp_c: f64,
}

fn main() {
    hetero_bench::cli(
        "ablate_thermal",
        "Extension experiment: sustained-load thermal throttling",
        &[],
        |_| (),
    );
    println!("Extension: thermal throttling over a 30-minute decode session (Llama-8B)\n");
    let model = ModelConfig::llama_8b();
    let thermal = ThermalModel::default();
    let mut t = Table::new(&[
        "engine",
        "power (W)",
        "cold tok/s",
        "sustained factor",
        "sustained tok/s",
        "equilibrium temp",
    ]);
    let mut points = Vec::new();
    for kind in [
        EngineKind::LlamaCpp,
        EngineKind::PplOpenCl,
        EngineKind::HeteroLayer,
        EngineKind::HeteroTensor,
    ] {
        let mut e = kind.build(&model, SyncMechanism::Fast);
        let cold = e.decode(256, 16).tokens_per_sec();
        let power = e.finish().avg_power_w;

        let duration = 1800.0;
        let factor = thermal.sustained_factor(power, duration);
        let final_temp = thermal
            .sustained(power, duration, 1.0)
            .last()
            .expect("samples")
            .temp_c;
        t.row(&[
            kind.name().into(),
            fmt(power),
            fmt(cold),
            format!("{:.2}", factor),
            fmt(cold * factor),
            format!("{final_temp:.1} C"),
        ]);
        points.push(Point {
            engine: kind.name().into(),
            power_w: power,
            cold_tokens_per_sec: cold,
            sustained_factor: factor,
            sustained_tokens_per_sec: cold * factor,
            steady_temp_c: final_temp,
        });
    }
    t.print();

    // Temperature timelines for the hottest and coolest engines.
    let timeline = |w: f64, label: &str| {
        Series::new(
            label,
            thermal
                .sustained(w, 1800.0, 10.0)
                .iter()
                .map(|s| (s.t_s, s.temp_c))
                .collect(),
        )
    };
    let hottest = points
        .iter()
        .max_by(|a, b| a.power_w.total_cmp(&b.power_w))
        .expect("points");
    let coolest = points
        .iter()
        .min_by(|a, b| a.power_w.total_cmp(&b.power_w))
        .expect("points");
    print_plot(
        "chassis temperature (C) over 30 min:",
        &[
            timeline(hottest.power_w, &hottest.engine),
            timeline(coolest.power_w, &coolest.engine),
        ],
        64,
        12,
    );

    let p = |e: &str| points.iter().find(|x| x.engine == e).expect("engine");
    let ppl = p("PPL-OpenCL");
    let tensor = p("Hetero-tensor");
    let cpu = p("llama.cpp");
    // llama.cpp's big-core burn throttles hardest; Hetero engines stay
    // comfortable; the sustained hetero advantage ≥ the cold one.
    assert!(cpu.sustained_factor <= ppl.sustained_factor);
    assert!(tensor.sustained_factor >= ppl.sustained_factor);
    let cold_gain = tensor.cold_tokens_per_sec / ppl.cold_tokens_per_sec;
    let sustained_gain = tensor.sustained_tokens_per_sec / ppl.sustained_tokens_per_sec;
    println!(
        "\ncold-start decode gain over PPL: {:.2}x; sustained gain: {:.2}x",
        cold_gain, sustained_gain
    );
    assert!(sustained_gain >= cold_gain * 0.999);
    save_json("ablate_thermal", &points);
}
