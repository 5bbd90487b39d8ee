//! `fleet_10k` and `fleet_long`: the `fleet_sweep --events-out` pipeline
//! (world construction, both replay arms, the temporal monitor over both
//! logs, and the JSON round trip `analyze monitor` reads), and for
//! `fleet_long` also `rollout_sweep`'s two shipped candidates.

use hetero_analyze::rules::{BROWNOUT_UNSHED, CENSUS_STALENESS};
use hetero_analyze::{monitor_fleet_log, MonitorVerdict};
use hetero_fleet::{
    calibrate_devices, calibrate_profiles_with_socs, ArmReport, FleetComparison, FleetConfig,
    FleetEvent, FleetEventLog, FleetLogPair, FleetSim, PolicyRevision, RolloutConfig,
    RolloutController, RolloutLogSet, RolloutReport, RouterPolicy,
};

use crate::check::Checks;
use crate::stats::{Claim, Digest};
use crate::trace::{count, span};

/// The fleet's reference device class: the paper's own SoC.
const REFERENCE_SOC: &str = "Qualcomm 8 Gen 3";
/// Paper Fig. 13: InternLM-1.8B Hetero-tensor prefill at 256 tokens, tokens/s.
const PAPER_PREFILL_TPS: f64 = 1092.0;
/// Paper Fig. 16: InternLM-1.8B Hetero-tensor decode, tokens/s.
const PAPER_DECODE_TPS: f64 = 51.12;
/// The histogram ceiling a saturated quantile reads as: 2³² − 1 ns.
const SATURATED_NS: u64 = (1 << 32) - 1;

/// One fleet workload's shape.
pub struct Fleet {
    seed: u64,
    devices: usize,
    requests: usize,
    /// Also run the rollout ladder over the same world.
    rollout: bool,
    jobs: usize,
}

/// The rollout half of a `fleet_long` pass.
pub struct RolloutOut {
    pub bad: RolloutReport,
    pub good: RolloutReport,
    pub verdicts: Vec<MonitorVerdict>,
    pub set: RolloutLogSet,
    pub text: String,
    pub back: Result<RolloutLogSet, String>,
}

/// Simulated outputs of one pass.
pub struct FleetOut {
    pub sim: FleetSim,
    pub robust: ArmReport,
    pub naive: ArmReport,
    pub robust_verdict: MonitorVerdict,
    pub naive_verdict: MonitorVerdict,
    pub pair: FleetLogPair,
    pub text: String,
    pub back: Result<FleetLogPair, String>,
    pub rollout: Option<RolloutOut>,
}

fn monitor(log: &FleetEventLog) -> MonitorVerdict {
    let v = span("analyze.monitor_fleet_log", || monitor_fleet_log(log));
    count("analyze.monitor_instances", v.instances as f64);
    v
}

fn round_trip<T>(value: &T) -> (String, Result<T, String>)
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let text = span("serde_json.to_string", || serde_json::to_string(value))
        .expect("event logs serialize");
    count("serde_json.bytes", text.len() as f64);
    let back =
        span("serde_json.from_str", || serde_json::from_str(&text)).map_err(|e| e.to_string());
    (text, back)
}

/// The names of an arm's quantiles that read the histogram ceiling.
fn saturated(arm: &ArmReport) -> Vec<String> {
    [
        ("ttft_p50_ns", arm.ttft_p50_ns),
        ("ttft_p99_ns", arm.ttft_p99_ns),
        ("ttft_p999_ns", arm.ttft_p999_ns),
        ("tpot_p50_ns", arm.tpot_p50_ns),
        ("tpot_p99_ns", arm.tpot_p99_ns),
        ("tpot_p999_ns", arm.tpot_p999_ns),
    ]
    .iter()
    .filter(|(_, q)| *q == SATURATED_NS)
    .map(|(name, _)| format!("{}.{name}", arm.policy))
    .collect()
}

fn digest_verdict(d: &mut Digest, v: &MonitorVerdict) {
    d.u64(v.events);
    d.u64(v.instances);
    d.u64(v.violations);
    for f in &v.findings {
        d.str(&f.rule_id);
    }
}

impl Fleet {
    /// `devices` × `requests`, calibrating on `jobs` workers.
    pub fn new(seed: u64, devices: usize, requests: usize, rollout: bool, jobs: usize) -> Self {
        Self {
            seed,
            devices,
            requests,
            rollout,
            jobs,
        }
    }

    /// One timed pass.
    pub fn run(&self) -> FleetOut {
        let sim = span("fleet.with_jobs", || {
            let cfg = FleetConfig::standard(self.seed, self.devices, self.requests);
            FleetSim::with_jobs(cfg, self.jobs)
        });
        count(
            "fleet.calib_sessions",
            sim.calibration().devices.len() as f64,
        );
        count("fleet.calib_faulted", sim.calibration().faulted as f64);
        let (robust, robust_log) = span("fleet.run_events.robust", || {
            sim.run_events(RouterPolicy::Robust)
        });
        let (naive, naive_log) = span("fleet.run_events.round_robin", || {
            sim.run_events(RouterPolicy::RoundRobin)
        });
        let dispatches = robust_log
            .events
            .iter()
            .chain(&naive_log.events)
            .filter(|e| matches!(e, FleetEvent::Dispatch { .. }))
            .count();
        count(
            "fleet.events",
            (robust_log.events.len() + naive_log.events.len()) as f64,
        );
        count("fleet.retries", (robust.retries + naive.retries) as f64);
        count(
            "fleet.served_per_dispatch",
            (robust.served + naive.served) as f64 / dispatches.max(1) as f64,
        );
        count(
            "fleet.saturated_quantiles",
            (saturated(&robust).len() + saturated(&naive).len()) as f64,
        );
        let robust_verdict = monitor(&robust_log);
        let naive_verdict = monitor(&naive_log);
        let pair = FleetLogPair {
            robust: robust_log,
            naive: naive_log,
        };
        let (text, back) = round_trip(&pair);
        let rollout = self.rollout.then(|| {
            let ctl = RolloutController::new(&sim, RolloutConfig::standard());
            let classes = sim.profiles().len();
            let run = |c: &PolicyRevision| span("fleet.rollout_run", || ctl.run(c));
            let (bad, bad_log) = run(&PolicyRevision::uniform(
                7,
                "npu-inversion",
                classes,
                2_500_000,
            ));
            let (good, good_log) = run(&PolicyRevision::uniform(
                8,
                "tuned-partition",
                classes,
                930_000,
            ));
            count(
                "fleet.rollout_events",
                (bad_log.events.len() + good_log.events.len()) as f64,
            );
            let verdicts = vec![monitor(&bad_log), monitor(&good_log)];
            let set = RolloutLogSet {
                runs: vec![bad_log, good_log],
            };
            let (text, back) = round_trip(&set);
            RolloutOut {
                bad,
                good,
                verdicts,
                set,
                text,
                back,
            }
        });
        FleetOut {
            sim,
            robust,
            naive,
            robust_verdict,
            naive_verdict,
            pair,
            text,
            back,
            rollout,
        }
    }

    /// Check a pass's outputs; returns their digest and the claim error.
    pub fn verify(&self, out: &FleetOut, checks: &mut Checks) -> (Digest, f64) {
        check_arms(out, checks);
        let mut d = Digest::default();
        for p in out.sim.profiles() {
            d.str(&p.soc);
            d.u64(p.prefill_ns_per_token);
            d.u64(p.decode_ns_per_token);
        }
        for c in &out.sim.calibration().devices {
            d.u64(c.prefill_adjust_ppm);
            d.u64(c.decode_adjust_ppm);
        }
        d.str(&serde_json::to_string(&out.robust).expect("reports serialize"));
        d.str(&serde_json::to_string(&out.naive).expect("reports serialize"));
        digest_verdict(&mut d, &out.robust_verdict);
        digest_verdict(&mut d, &out.naive_verdict);
        d.str(&out.text);
        if let Some(r) = &out.rollout {
            check_rollout(r, checks);
            d.str(&serde_json::to_string(&r.bad).expect("reports serialize"));
            d.str(&serde_json::to_string(&r.good).expect("reports serialize"));
            for v in &r.verdicts {
                digest_verdict(&mut d, v);
            }
            d.str(&r.text);
        }
        (d, claim_err_pct(&out.sim, checks))
    }

    /// Checks made once per run on the last pass's world: calibration at
    /// one worker equals calibration at `jobs`, and `compare()` equals the
    /// reports the recording replays produced.
    pub fn verify_once(&self, out: &FleetOut, checks: &mut Checks) {
        let cfg = out.sim.config();
        let (profiles, socs) = calibrate_profiles_with_socs(&cfg.model);
        let serial = calibrate_devices(&cfg.model, &profiles, &socs, cfg.seed, cfg.devices, 1);
        checks.check(
            "fleet.calibration_jobs_invariant",
            &serial == out.sim.calibration(),
        );
        let recorded = FleetComparison {
            seed: cfg.seed,
            devices: cfg.devices as u64,
            requests: cfg.requests as u64,
            robust: out.robust.clone(),
            naive: out.naive.clone(),
        };
        checks.check(
            "fleet.compare_matches_events",
            out.sim.compare() == recorded,
        );
        let mut sat = saturated(&out.robust);
        sat.extend(saturated(&out.naive));
        println!("quantiles at the 2^32-1 ns histogram ceiling: {sat:?}");
    }

    /// Call the functions `FleetSim::with_jobs` runs inside it, alone and
    /// with the same arguments.
    pub fn probe(&self) {
        let model = FleetConfig::standard(self.seed, self.devices, self.requests).model;
        let (profiles, socs) = span("fleet.calibrate_profiles_with_socs", || {
            calibrate_profiles_with_socs(&model)
        });
        span("fleet.calibrate_devices", || {
            calibrate_devices(&model, &profiles, &socs, self.seed, self.devices, self.jobs)
        });
    }
}

/// The fleet arms' invariants, which hold for any seed.
pub fn check_arms(out: &FleetOut, checks: &mut Checks) {
    checks.check("fleet.robust_lost_zero", out.robust.lost == 0);
    for arm in [&out.robust, &out.naive] {
        checks.check(
            "fleet.offered_conserved",
            arm.offered == arm.served + arm.shed + arm.lost,
        );
    }
    checks.check(
        "fleet.robust_monitor_clean",
        out.robust_verdict.findings.is_empty(),
    );
    for rule in [CENSUS_STALENESS, BROWNOUT_UNSHED] {
        checks.check(
            "fleet.naive_trips_known_rules",
            out.naive_verdict.findings.iter().any(|f| f.rule_id == rule),
        );
    }
    checks.check("fleet.json_round_trip", out.back.as_ref() == Ok(&out.pair));
}

fn check_rollout(r: &RolloutOut, checks: &mut Checks) {
    checks.check("rollout.bad_rolls_back", r.bad.outcome == "rolled-back");
    checks.check("rollout.good_promotes", r.good.outcome == "promoted");
    for v in &r.verdicts {
        checks.check("rollout.monitor_clean", v.findings.is_empty());
    }
    checks.check("rollout.json_round_trip", r.back.as_ref() == Ok(&r.set));
}

/// The fleet model's error at its one reference point: the paper's SoC
/// class, calibrated inside the pass on InternLM-1.8B at a 256-token
/// prompt, against the paper's prefill and decode rates for that shape.
/// The rest of the fleet model has no reference data.
fn claim_err_pct(sim: &FleetSim, checks: &mut Checks) -> f64 {
    let reference = sim.profiles().iter().find(|p| p.soc == REFERENCE_SOC);
    if !checks.check("fleet.reference_profile_present", reference.is_some()) {
        return 100.0;
    }
    let p = reference.expect("checked above");
    crate::stats::claim_err_pct(&[
        Claim {
            paper: PAPER_PREFILL_TPS,
            measured: 1e9 / p.prefill_ns_per_token as f64,
        },
        Claim {
            paper: PAPER_DECODE_TPS,
            measured: 1e9 / p.decode_ns_per_token as f64,
        },
    ])
}
