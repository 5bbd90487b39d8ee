//! Golden-file test pinning the fleet event-log JSON schema, plus the
//! observational-recording guarantee.
//!
//! `fleet_sweep --events-out` files and `analyze monitor FILE` both
//! speak this encoding, so any change to variant names, field names,
//! or ordering must show up as an explicit, reviewed diff. Regenerate
//! with `UPDATE_GOLDEN=1 cargo test -p hetero-fleet --test golden`.

use hetero_fleet::{
    BreakerCause, BreakerState, FleetConfig, FleetEvent, FleetEventLog, FleetSim, Priority,
    ProfileCause, RouterPolicy, EVENT_LOG_VERSION,
};
use hetero_soc::SimTime;

/// A tiny hand-built log with one event of every kind, in canonical
/// order after `normalize()`.
fn one_of_each_log() -> FleetEventLog {
    let t = SimTime::from_millis;
    let mut log = FleetEventLog {
        version: EVENT_LOG_VERSION,
        seed: 7,
        policy: "robust".to_string(),
        devices: 2,
        requests: 3,
        slo_ttft_ns: 1_000_000_000,
        deadline_ns: 4_000_000_000,
        census_interval_ns: 50_000_000,
        rollout_window_ns: 5_000_000_000,
        events: vec![
            FleetEvent::RolloutStage {
                at: t(5000),
                stage: 1,
                pct: 1,
                canary: 1,
            },
            FleetEvent::ProfileUpdate {
                at: t(5000),
                device: 1,
                slowdown_ppm: 1_000_000,
                revision: 1,
                cause: ProfileCause::CanaryApply,
            },
            FleetEvent::Rollback {
                at: t(9000),
                stage: 1,
            },
            FleetEvent::Promote {
                at: t(9500),
                stage: 2,
            },
            FleetEvent::Complete {
                at: t(900),
                req: 0,
                device: 1,
                ttft: t(120),
                tpot: t(9),
            },
            FleetEvent::Offered {
                at: t(100),
                req: 0,
                priority: Priority::Interactive,
                prompt_tokens: 128,
                decode_tokens: 64,
            },
            FleetEvent::CensusRefresh {
                at: t(50),
                healthy: 2,
            },
            FleetEvent::Shed {
                at: t(150),
                req: 1,
                priority: Priority::Batch,
            },
            FleetEvent::Dispatch {
                at: t(100),
                req: 0,
                device: 0,
                attempt: 0,
                priority: Priority::Interactive,
            },
            FleetEvent::DispatchFail {
                at: t(350),
                req: 0,
                device: 0,
                attempt: 0,
            },
            FleetEvent::Retry {
                at: t(350),
                req: 0,
                attempt: 1,
                delay: t(2),
            },
            FleetEvent::Dispatch {
                at: t(352),
                req: 0,
                device: 1,
                attempt: 1,
                priority: Priority::Interactive,
            },
            FleetEvent::Lost {
                at: t(4200),
                req: 2,
            },
            FleetEvent::Breaker {
                at: t(350),
                device: 0,
                from: BreakerState::Closed,
                to: BreakerState::Open,
                cause: BreakerCause::FailureThreshold,
            },
            FleetEvent::FaultOpen {
                at: t(300),
                storm: 0,
            },
            FleetEvent::FaultClose {
                at: t(600),
                storm: 0,
            },
        ],
    };
    log.normalize();
    log
}

#[test]
fn event_log_json_is_golden() {
    let mut json = serde_json::to_string(&one_of_each_log()).expect("serialize event log");
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/event_log.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file checked in");
    assert_eq!(
        json, golden,
        "event-log JSON schema changed; bump EVENT_LOG_VERSION, review, and regenerate with \
         UPDATE_GOLDEN=1"
    );
}

#[test]
fn event_log_json_roundtrips() {
    let log = one_of_each_log();
    let json = serde_json::to_string(&log).expect("serialize");
    let back: FleetEventLog = serde_json::from_str(&json).expect("parse");
    assert_eq!(back, log);
}

#[test]
fn v1_log_without_rollout_window_reads_as_no_rollout() {
    let log = FleetEventLog {
        version: 1,
        rollout_window_ns: 0,
        ..one_of_each_log()
    };
    let json = serde_json::to_string(&log).expect("serialize");
    let v1 = json.replace(r#""rollout_window_ns":0,"#, "");
    assert_ne!(v1, json, "the key is dropped");
    let back: FleetEventLog = serde_json::from_str(&v1).expect("a v1 log parses");
    assert_eq!(back, log);
}

#[test]
fn recording_is_observational_reports_stay_byte_identical() {
    // The recorded replay must produce the same ArmReport bytes as
    // the unrecorded one — event logging may not perturb routing,
    // retries, or RNG draws.
    let sim = FleetSim::new(FleetConfig::standard(42, 32, 240));
    for policy in [RouterPolicy::Robust, RouterPolicy::RoundRobin] {
        let plain = sim.run(policy);
        let (recorded, log) = sim.run_events(policy);
        assert_eq!(
            serde_json::to_string(&plain).expect("serialize"),
            serde_json::to_string(&recorded).expect("serialize"),
            "{policy:?}: recording changed the report"
        );
        assert!(!log.events.is_empty());
        assert_eq!(log.version, EVENT_LOG_VERSION);
        // Canonical order is established at emission time.
        let mut sorted = log.events.clone();
        sorted.sort_by_key(FleetEvent::sort_key);
        assert_eq!(sorted, log.events, "{policy:?}: log not normalized");
    }
}
