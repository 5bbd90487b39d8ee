//! Cross-SoC projection: HeteroLLM on the other Table-1 phone SoCs.
//!
//! Uses the documented scaling assumptions of
//! [`hetero_soc::specs::project_config`] to project the calibrated
//! 8 Gen 3 models onto the MediaTek 9300 and Apple A18, then runs the
//! full Hetero-tensor engine on each — the "new insights into designing
//! more efficient edge AI accelerators" angle of the paper's §7.

use hetero_bench::{fmt, save_json, Table};
use hetero_soc::specs::{project_config, table1};
use heterollm::engines::{Engine, HeteroTensorEngine};
use heterollm::ModelConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    soc: String,
    prefill_tokens_per_sec: f64,
    decode_tokens_per_sec: f64,
}

fn main() {
    let jobs = hetero_bench::cli(
        "compare_socs",
        "Cross-SoC projection: HeteroLLM on the other Table-1 phone SoCs",
        &[hetero_bench::JOBS],
        |a| a.get("--jobs").unwrap_or(1),
    );
    println!("Cross-SoC projection: Hetero-tensor on Table-1 phone SoCs (Llama-3B)\n");
    println!("(GPU/NPU throughput scaled from published specs by the 8 Gen 3's");
    println!(" achieved/theoretical ratios; memory and drivers held constant.)\n");
    let model = ModelConfig::llama_3b();
    let mut t = Table::new(&[
        "SoC",
        "GPU (eff TFLOPS)",
        "NPU (eff TFLOPS)",
        "prefill tok/s",
        "decode tok/s",
    ]);
    // Each projected SoC runs its own independent engine pair; the
    // executor merges by index, so rows print in Table-1 order for
    // every --jobs value.
    let projected: Vec<_> = table1()
        .into_iter()
        .filter_map(|spec| {
            // No FP16 NPU: HeteroLLM's FLOAT design needs one.
            let cfg = project_config(&spec)?;
            Some((spec, cfg))
        })
        .collect();
    let measured = heterollm::exec::Executor::new(jobs).run(projected.len(), |i| {
        let (_, cfg) = &projected[i];
        let mut engine = HeteroTensorEngine::with_soc_config(&model, cfg.clone());
        let prefill = engine.prefill(256).tokens_per_sec();
        let decode = engine.decode(256, 8).tokens_per_sec();
        (prefill, decode)
    });
    let mut points = Vec::new();
    for ((spec, cfg), (prefill, decode)) in projected.iter().zip(measured) {
        t.row(&[
            format!("{} {}", spec.vendor, spec.soc),
            fmt(cfg.gpu.achieved_tflops),
            fmt(cfg.npu.peak_tflops),
            fmt(prefill),
            fmt(decode),
        ]);
        points.push(Point {
            soc: format!("{} {}", spec.vendor, spec.soc),
            prefill_tokens_per_sec: prefill,
            decode_tokens_per_sec: decode,
        });
    }
    t.print();

    // Prefill tracks NPU compute; decode tracks memory bandwidth and is
    // nearly SoC-independent under these assumptions.
    let max_prefill = points
        .iter()
        .map(|p| p.prefill_tokens_per_sec)
        .fold(0.0f64, f64::max);
    let min_prefill = points
        .iter()
        .map(|p| p.prefill_tokens_per_sec)
        .fold(f64::MAX, f64::min);
    let max_decode = points
        .iter()
        .map(|p| p.decode_tokens_per_sec)
        .fold(0.0f64, f64::max);
    let min_decode = points
        .iter()
        .map(|p| p.decode_tokens_per_sec)
        .fold(f64::MAX, f64::min);
    println!(
        "\nprefill spread {:.2}x (compute-bound, follows the NPU); decode spread {:.2}x (bandwidth-bound)",
        max_prefill / min_prefill,
        max_decode / min_decode
    );
    assert!(max_prefill / min_prefill > max_decode / min_decode);
    save_json("compare_socs", &points);
}
