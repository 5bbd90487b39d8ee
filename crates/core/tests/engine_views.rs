//! Golden-file test pinning what every engine records: the concurrency
//! log the race detector reads and the span timeline the observability
//! layer exports.
//!
//! One line per case — every [`EngineKind`] under both sync mechanisms
//! on InternLM-1.8B (64-token prompt, 1 decoded token), plus one seeded
//! degraded [`RuntimeController`] session with both views armed at once
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
use heterollm::obs::{chrome, Timeline};
use heterollm::runtime::{conversation_traffic, ControllerConfig, SloPolicy};
use heterollm::trace::ConcurrencyLog;
use heterollm::{EngineKind, ModelConfig, RuntimeController};

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

fn engine_case(kind: EngineKind, mechanism: SyncMechanism) -> String {
    let model = ModelConfig::internlm_1_8b();
    let mut engine = kind.build(&model, mechanism);
    engine.enable_events();
    engine.try_prefill(64).expect("prefill");
    engine.try_decode(64, 1).expect("decode");
    let events = engine.take_events().expect("events recorded");
    let log = ConcurrencyLog::from_events(&events);
    let tl = Timeline::from_events(&events);
    case_line(
        &format!("{}/{}", engine.name(), mechanism.name()),
        &log,
        &tl,
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
    for kind in EngineKind::ALL {
        for mechanism in [SyncMechanism::Fast, SyncMechanism::Driver] {
            actual.push_str(&engine_case(kind, mechanism));
        }
    }
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
