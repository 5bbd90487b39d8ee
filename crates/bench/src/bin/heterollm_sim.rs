//! Command-line driver for the simulated inference stack.
//!
//! ```text
//! cargo run --release -p hetero-bench --bin heterollm_sim -- \
//!     --model llama-8b --engine hetero-tensor --prompt 256 --decode 64 \
//!     [--sync driver] [--trace-out trace.json] [--metrics]
//! ```
//!
//! `--trace-out` records the run through the observability layer and
//! writes a Chrome trace-event JSON (open in Perfetto / `chrome://
//! tracing`; see `OBSERVABILITY.md`). `--metrics` prints the
//! all-integer metrics snapshot as one JSON line. Both are
//! deterministic: same arguments, byte-identical output.

use hetero_bench::Flag;
use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, InferenceSession, ModelConfig};

struct Args {
    model: ModelConfig,
    engine: EngineKind,
    prompt: usize,
    decode: usize,
    sync: SyncMechanism,
    trace_out: Option<String>,
    metrics: bool,
}

const FLAGS: &[Flag] = &[
    (
        "--model",
        "MODEL",
        "model config, one of llama-8b, llama-7b, llama-3b, internlm-1.8b, mistral-7b, \
         qwen2-1.5b (default llama-8b)",
    ),
    (
        "--engine",
        "ENGINE",
        "engine under test, one of hetero-tensor, hetero-layer, ppl-opencl, mlc, mnn-opencl, \
         llama-cpp, padding, online-prepare, pipe, chunked-prefill, mllm-npu \
         (default hetero-tensor)",
    ),
    ("--prompt", "N", "prompt tokens to prefill (default 256)"),
    ("--decode", "N", "tokens to decode (default 64)"),
    ("--sync", "fast|driver", "sync mechanism (default fast)"),
    (
        "--trace-out",
        "PATH",
        "write a Chrome trace-event JSON of the run (Perfetto-loadable)",
    ),
    (
        "--metrics",
        "",
        "print the all-integer metrics snapshot as one JSON line",
    ),
];

fn main() {
    let args = hetero_bench::cli(
        "heterollm_sim",
        "simulate one prefill+decode session on a chosen engine/model",
        FLAGS,
        |a| Args {
            model: a.get("--model").unwrap_or_else(ModelConfig::llama_8b),
            engine: a.get("--engine").unwrap_or(EngineKind::HeteroTensor),
            prompt: a.get("--prompt").unwrap_or(256),
            decode: a.get("--decode").unwrap_or(64),
            sync: a.get("--sync").unwrap_or(SyncMechanism::Fast),
            trace_out: a.get("--trace-out"),
            metrics: a.has("--metrics"),
        },
    );
    println!(
        "simulating {} on {} ({} prompt tokens, {} decode tokens, {:?} sync)\n",
        args.engine.name(),
        args.model.name,
        args.prompt,
        args.decode,
        args.sync
    );
    let mut session = InferenceSession::with_sync(args.engine, &args.model, args.sync);
    let observed = args.trace_out.is_some() || args.metrics;
    let (r, timeline) = if observed {
        let (r, tl) = session.run_observed(args.prompt, args.decode);
        (r, Some(tl))
    } else {
        (session.run(args.prompt, args.decode), None)
    };
    println!(
        "prefill : {:>10}  ({:.1} tokens/s)",
        r.prefill.elapsed.to_string(),
        r.prefill.tokens_per_sec()
    );
    println!(
        "decode  : {:>10}  ({:.2} tokens/s)",
        r.decode.elapsed.to_string(),
        r.decode.tokens_per_sec()
    );
    println!("TTFT    : {:>10}", r.ttft().to_string());
    println!("TPOT    : {:>10}", r.tpot().to_string());
    println!(
        "power   : {:>9.2}W  energy {:.2} J",
        r.power.avg_power_w, r.power.energy_j
    );
    if let Some(tl) = &timeline {
        if let Err(e) = tl.check_well_formed() {
            eprintln!("timeline malformed: {e}");
            std::process::exit(1);
        }
        if let Some(path) = &args.trace_out {
            let json = heterollm::obs::chrome::to_chrome_json(tl);
            hetero_bench::write_output("heterollm_sim", path, json);
            println!(
                "trace   : {path} ({} spans, {} flows)",
                tl.spans().len(),
                tl.flows().len()
            );
        }
        if args.metrics {
            let snap = heterollm::obs::MetricsRegistry::from_timeline(tl).snapshot();
            println!(
                "{}",
                serde_json::to_string(&snap).expect("metrics serialize")
            );
        }
    }
}
