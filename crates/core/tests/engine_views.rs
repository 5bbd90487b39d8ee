//! Golden-file test pinning what every engine records: the concurrency
//! log the race detector reads and the span timeline the observability
//! layer exports.
//!
//! One line per case — every [`EngineKind`] under both sync mechanisms
//! on InternLM-1.8B (64-token prompt, 1 decoded token); Hetero-tensor on
//! Llama-8B at the misaligned prompts 135 and 300 (the SeqCut and
//! HybridCut plans) with 2 decoded tokens; one speculative-decoding run
//! (n-row verification plans); plus one seeded degraded
//! [`RuntimeController`] session per arm with both views armed at once
//! (replans, fallbacks and sync-downgrade markers included). Each line
//! carries the log's event count, the timeline's span and flow counts,
//! and FNV-1a-64 digests of a line-per-event rendering of the log and of
//! the timeline's Chrome JSON, so any change to either view is an
//! explicit, reviewed diff. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p heterollm --test engine_views`.

use std::fmt::Write as _;

use hetero_soc::disturb::DisturbanceTrace;
use hetero_soc::sync::SyncMechanism;
use hetero_soc::SimTime;
use heterollm::engines::HeteroTensorEngine;
use heterollm::obs::{chrome, Timeline};
use heterollm::runtime::{conversation_traffic, ControllerConfig, SloPolicy};
use heterollm::spec_decode::run_speculative_hetero;
use heterollm::trace::ConcurrencyLog;
use heterollm::{Engine, EngineKind, ModelConfig, RuntimeController};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line per log event: sequence, time, actor, payload.
fn render_log(log: &ConcurrencyLog) -> String {
    let mut out = String::new();
    for e in &log.events {
        writeln!(
            out,
            "{} {} {:?} {:?}",
            e.seq,
            e.at.as_nanos(),
            e.actor,
            e.op
        )
        .unwrap();
    }
    out
}

fn case_line(case: &str, log: &ConcurrencyLog, tl: &Timeline) -> String {
    tl.check_well_formed().expect("well-formed timeline");
    format!(
        "{case}: events={} spans={} flows={} log_fnv={:016x} chrome_fnv={:016x}\n",
        log.len(),
        tl.spans().len(),
        tl.flows().len(),
        fnv1a64(render_log(log).as_bytes()),
        fnv1a64(chrome::to_chrome_json(tl).as_bytes()),
    )
}

fn events_line(case: &str, engine: &mut dyn Engine) -> String {
    let events = engine.take_events().expect("events recorded");
    let log = ConcurrencyLog::from_events(&events);
    let tl = Timeline::from_events(&events);
    case_line(case, &log, &tl)
}

/// Prefill `prompt` tokens then decode `tokens`; `tag` is appended to
/// the `engine/mechanism` case name.
fn engine_case(
    model: &ModelConfig,
    kind: EngineKind,
    mechanism: SyncMechanism,
    (prompt, tokens): (usize, usize),
    tag: &str,
) -> String {
    let mut engine = kind.build(model, mechanism);
    engine.enable_events();
    engine.try_prefill(prompt).expect("prefill");
    engine.try_decode(prompt, tokens).expect("decode");
    let case = format!("{}/{}{tag}", engine.name(), mechanism.name());
    events_line(&case, engine.as_mut())
}

/// Speculative decoding on Hetero-tensor: every step runs the
/// `verify_rows`-row decode trace through the verification plans.
fn speculative_case() -> String {
    let (prompt, verify_rows, commits) = (256, 5, [3, 1, 5, 2]);
    let model = ModelConfig::llama_8b();
    let mut engine = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
    engine.enable_events();
    run_speculative_hetero(&mut engine, prompt, verify_rows, &commits).expect("speculate");
    events_line(
        &format!(
            "Hetero-tensor/speculative[{}, prompt={prompt}, verify_rows={verify_rows}, commits={commits:?}]",
            model.name
        ),
        &mut engine,
    )
}

/// The race sweep's degraded session shape: seeded conversation traffic
/// under the standard disturbance trace. The adaptive arm replans,
/// falls back and downgrades sync (quiesce and driver-carried markers);
/// the static arm retries every flaky rendezvous (retry markers).
fn degraded_case(adaptive: bool) -> String {
    let (seed, requests) = (42, 8);
    let model = ModelConfig::internlm_1_8b();
    let slo = SloPolicy::calibrated(&model);
    let cfg = if adaptive {
        ControllerConfig::adaptive(slo)
    } else {
        ControllerConfig::static_baseline(slo)
    };
    let mut ctrl = RuntimeController::new(&model, cfg);
    ctrl.enable_concurrency_log();
    ctrl.enable_timeline();
    let reqs = conversation_traffic(seed, requests, SimTime::from_millis(500));
    let report = ctrl
        .run(&reqs, &DisturbanceTrace::standard(seed))
        .expect("standard trace is well-formed");
    let s = &report.summary;
    if adaptive {
        assert!(
            s.replans >= 1 && s.fallbacks >= 1 && s.sync_downgrades >= 1,
            "the pinned session must exercise every controller transition: {s:?}"
        );
    } else {
        assert!(s.sync_retries >= 1, "no retry marker to pin: {s:?}");
    }
    let log = ctrl.take_concurrency_log().expect("log recorded");
    let tl = ctrl.take_timeline().expect("timeline recorded");
    let arm = if adaptive { "adaptive" } else { "static" };
    case_line(
        &format!("{}/{arm}[seed={seed},requests={requests}]", model.name),
        &log,
        &tl,
    )
}

#[test]
fn engine_views_are_golden() {
    let mut actual = String::new();
    let internlm = ModelConfig::internlm_1_8b();
    for kind in EngineKind::ALL {
        for mechanism in [SyncMechanism::Fast, SyncMechanism::Driver] {
            actual.push_str(&engine_case(&internlm, kind, mechanism, (64, 1), ""));
        }
    }
    let llama = ModelConfig::llama_8b();
    for prompt in [135, 300] {
        for mechanism in [SyncMechanism::Fast, SyncMechanism::Driver] {
            let kind = EngineKind::HeteroTensor;
            let tag = format!("[{}, prompt={prompt}, tokens=2]", llama.name);
            actual.push_str(&engine_case(&llama, kind, mechanism, (prompt, 2), &tag));
        }
    }
    actual.push_str(&speculative_case());
    actual.push_str(&degraded_case(true));
    actual.push_str(&degraded_case(false));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/engine_views.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &actual).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file checked in");
    assert_eq!(
        actual, golden,
        "recorded engine views changed; review and regenerate with UPDATE_GOLDEN=1"
    );
}
