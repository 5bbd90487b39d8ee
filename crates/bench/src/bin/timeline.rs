//! ASCII swimlane of one observed session: what each backend was doing
//! when, on the simulated clock.
//!
//! ```text
//! cargo run --release -p hetero-bench --bin timeline -- \
//!     --model internlm-1.8b --engine hetero-tensor --prompt 256 --decode 8 \
//!     [--width 100] [--trace-out trace.json]
//! ```
//!
//! The render places one row per track (GPU, NPU, CPU, Controller):
//! `#` = kernel execution, `~` = synchronization (switches,
//! rendezvous), `c` = graph-cache work, `*` = controller reactions,
//! `.` = an enclosing phase with nothing else scheduled. A phase
//! header row marks prefill vs decode. `--trace-out` additionally
//! writes the full-fidelity Chrome trace-event JSON of the same run.

use hetero_bench::Flag;
use hetero_soc::sync::SyncMechanism;
use heterollm::obs::{swimlane, MetricsRegistry};
use heterollm::{EngineKind, InferenceSession, ModelConfig};

struct Args {
    model: ModelConfig,
    engine: EngineKind,
    prompt: usize,
    decode: usize,
    sync: SyncMechanism,
    width: usize,
    trace_out: Option<String>,
}

const FLAGS: &[Flag] = &[
    (
        "--model",
        "MODEL",
        "model config, one of llama-8b, llama-7b, llama-3b, internlm-1.8b, mistral-7b, \
         qwen2-1.5b (default internlm-1.8b)",
    ),
    (
        "--engine",
        "ENGINE",
        "engine under test, one of hetero-tensor, hetero-layer, ppl-opencl, mlc, mnn-opencl, \
         llama-cpp, padding, online-prepare, pipe, chunked-prefill, mllm-npu \
         (default hetero-tensor)",
    ),
    ("--prompt", "N", "prompt tokens to prefill (default 256)"),
    ("--decode", "N", "tokens to decode (default 8)"),
    ("--sync", "fast|driver", "sync mechanism (default fast)"),
    (
        "--width",
        "COLS",
        "swimlane width in columns (default 100, min 20)",
    ),
    (
        "--trace-out",
        "PATH",
        "also write the Chrome trace-event JSON of the same run",
    ),
];

fn main() {
    let args = hetero_bench::cli(
        "timeline",
        "render an ASCII swimlane of one observed prefill+decode session",
        FLAGS,
        |a| Args {
            model: a.get("--model").unwrap_or_else(ModelConfig::internlm_1_8b),
            engine: a.get("--engine").unwrap_or(EngineKind::HeteroTensor),
            prompt: a.get("--prompt").unwrap_or(256),
            decode: a.get("--decode").unwrap_or(8),
            sync: a.get("--sync").unwrap_or(SyncMechanism::Fast),
            width: match a.get("--width") {
                Some(w) if w < 20 => a.bad_value("--width"),
                w => w.unwrap_or(100),
            },
            trace_out: a.get("--trace-out"),
        },
    );
    println!(
        "timeline: {} on {} ({} prompt, {} decode, {:?} sync)\n",
        args.engine.name(),
        args.model.name,
        args.prompt,
        args.decode,
        args.sync
    );
    let mut session = InferenceSession::with_sync(args.engine, &args.model, args.sync);
    let (report, tl) = session.run_observed(args.prompt, args.decode);
    tl.check_well_formed().expect("timeline well-formed");

    print!("{}", swimlane::render(&tl, args.width));

    let snap = MetricsRegistry::from_timeline(&tl).snapshot();
    println!();
    for c in &snap.counters {
        println!("  {:<20} {}", c.name, c.value);
    }
    println!(
        "\nTTFT {}  TPOT {}  ({} spans, {} flows)",
        report.ttft(),
        report.tpot(),
        tl.spans().len(),
        tl.flows().len()
    );

    if let Some(path) = &args.trace_out {
        hetero_bench::write_output(
            "timeline",
            path,
            heterollm::obs::chrome::to_chrome_json(&tl),
        );
        println!("trace written to {path}");
    }
}
