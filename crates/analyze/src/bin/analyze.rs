//! Lint solver output across the paper's model configurations.
//!
//! For every evaluation model, the tool solves the per-layer weight
//! Matmuls over a sweep of aligned and misaligned sequence lengths
//! (prefill, NPU-dominant) plus the decode shape (m = 1,
//! GPU-dominant), then runs every analyzer rule on each chosen plan.
//!
//! ```text
//! analyze [race|explore|integrity] [--json] [--model NAME]
//!         [--mechanism fast|driver] [--seq N,N,...] [--rules]
//! ```
//!
//! Subcommands:
//!
//! - *(none)* — the static plan/schedule lint sweep.
//! - `race` — record concurrency event logs from real engine runs
//!   (plus a seeded degraded controller session) and run the
//!   vector-clock happens-before race detector over them.
//! - `explore` — replay every legal interleaving class of each
//!   solver-chosen plan's sync schedule and certify byte-identical
//!   session reports.
//! - `integrity` — rewrite each solver-chosen plan's schedule with
//!   per-submission ABFT verify nodes and check the result against the
//!   schedule sanity, `unverified-sink`, and race rules.
//! - `bound` — abstract-interpretation cost certification: static peak
//!   footprint and `[lo, hi]` latency bounds per model (plus every
//!   condition point of a seeded degraded session), checked against
//!   the pool capacity and calibrated SLOs, and gated for soundness
//!   against fresh DES runs (`bound-unsound` on any escape).
//! - `timeline FILE` — lint an exported Chrome trace-event JSON file
//!   (`--trace-out` output): spans nest per track, every submit has a
//!   matching complete, flow arrows pair up, timestamps are integers.
//! - `fleet` — fleet-serving robustness gate: check the shipped retry
//!   policy against `retry-storm`, then run a seeded fleet comparison
//!   and check the robust arm's evidence against `shed-starvation`
//!   (and that no request went unrecovered).
//! - `monitor [FILE|-]` — temporal fleet-policy certification:
//!   model-check the shipped breaker × retry × admission product
//!   automaton (exact state counts; livelock freedom, bounded retry,
//!   Open escapability) and the staged-rollout ladder (promotion
//!   reachable, rollback reachable from every non-terminal state),
//!   then sweep the past-time-LTL spec library over fleet event logs —
//!   `FILE` (JSON written by `fleet_sweep --events-out` or
//!   `rollout_sweep --events-out`), `-` for the same JSON on stdin, or
//!   a fresh seeded in-process run. Naive-arm findings are expected
//!   evidence; CI greps for them.
//!
//! Exit status: 0 when no deny-level finding, 1 otherwise, 2 on usage
//! errors and on input files that cannot be read or parsed. CI gates
//! on this.

use std::process::ExitCode;

use hetero_analyze::sweep::{
    explore_models, integrity_lint_models, lint_models, race_lint_degraded_session,
    race_lint_models, DEFAULT_SEQS,
};
use hetero_analyze::RULES;
use hetero_analyze::{bound_lint_degraded_session, bound_lint_models, DEFAULT_POOL_BYTES};
use hetero_fleet::{FleetConfig, FleetSim, RetryPolicy};
use hetero_soc::sync::SyncMechanism;
use heterollm::ModelConfig;

const USAGE: &str = "usage: analyze [race|explore|integrity|bound|fleet|monitor [FILE|-]|timeline \
     FILE] [--json] [--model NAME] [--mechanism fast|driver] [--seq N,N,...] [--rules]";

#[derive(PartialEq, Eq, Clone)]
enum Command {
    Lint,
    Race,
    Explore,
    Integrity,
    Bound,
    Fleet,
    Monitor(Option<String>),
    Timeline(String),
}

struct Args {
    command: Command,
    json: bool,
    help: bool,
    list_rules: bool,
    models: Vec<String>,
    mechanism: SyncMechanism,
    seqs: Vec<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: Command::Lint,
        json: false,
        help: false,
        list_rules: false,
        models: Vec::new(),
        mechanism: SyncMechanism::Fast,
        seqs: DEFAULT_SEQS.to_vec(),
    };
    let mut first = true;
    let mut it = std::env::args().skip(1);
    // A flag consumed while probing for `monitor`'s optional
    // positional gets replayed here.
    let mut pushed_back: Option<String> = None;
    while let Some(arg) = pushed_back.take().or_else(|| it.next()) {
        let positional = first && !arg.starts_with('-');
        first = false;
        if positional {
            args.command = match arg.as_str() {
                "race" => Command::Race,
                "explore" => Command::Explore,
                "integrity" => Command::Integrity,
                "bound" => Command::Bound,
                "fleet" => Command::Fleet,
                "monitor" => {
                    // Optional positional log file (`-` = stdin);
                    // flags keep parsing.
                    let path = match it.next() {
                        Some(next) if next == "-" || !next.starts_with('-') => Some(next),
                        Some(flag) => {
                            pushed_back = Some(flag);
                            None
                        }
                        None => None,
                    };
                    Command::Monitor(path)
                }
                "timeline" => {
                    let path = it.next().ok_or("timeline needs a trace file path")?;
                    Command::Timeline(path)
                }
                other => return Err(format!("unknown subcommand '{other}'")),
            };
            continue;
        }
        match arg.as_str() {
            "--json" => args.json = true,
            "--rules" => args.list_rules = true,
            "--model" => {
                let name = it.next().ok_or("--model needs a value")?;
                args.models.push(name);
            }
            "--mechanism" => {
                args.mechanism = match it.next().as_deref() {
                    Some("fast") => SyncMechanism::Fast,
                    Some("driver") => SyncMechanism::Driver,
                    other => return Err(format!("--mechanism needs fast|driver, got {other:?}")),
                };
            }
            "--seq" => {
                let csv = it.next().ok_or("--seq needs a comma-separated list")?;
                args.seqs = csv
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("bad --seq '{s}': {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn models_for(args: &Args) -> Result<Vec<ModelConfig>, String> {
    if args.models.is_empty() {
        return Ok(ModelConfig::evaluation_models());
    }
    args.models
        .iter()
        .map(|name| ModelConfig::by_name(name).ok_or_else(|| format!("unknown model '{name}'")))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if args.list_rules {
        for r in &RULES {
            println!(
                "{:<20} {:<5} {} [{}]",
                r.id,
                r.severity.to_string(),
                r.summary,
                r.paper
            );
        }
        return ExitCode::SUCCESS;
    }

    let models = match models_for(&args) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let report = match args.command.clone() {
        Command::Lint => lint_models(&models, &args.seqs, args.mechanism),
        Command::Timeline(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            // Text that is not JSON at all is a parse error (exit 2);
            // JSON that is not a well-formed trace is a finding.
            let doc = match serde_json::from_str(&text) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("cannot parse {path} as JSON: {e}");
                    return ExitCode::from(2);
                }
            };
            let mut report = hetero_analyze::Report::new();
            report.extend(hetero_analyze::check_trace_doc(&doc, &path));
            report
        }
        Command::Race => {
            // One representative prefill length (the paper's misaligned
            // 300) unless the user narrowed --seq.
            let seq = if args.seqs == DEFAULT_SEQS {
                300
            } else {
                args.seqs.first().copied().unwrap_or(300)
            };
            let mut report = race_lint_models(&models, args.mechanism, seq);
            for model in &models {
                report.merge(race_lint_degraded_session(model, 42, 6));
            }
            report
        }
        Command::Explore => {
            let seqs: &[usize] = if args.seqs == DEFAULT_SEQS {
                &[300]
            } else {
                &args.seqs
            };
            let (report, certs) = explore_models(&models, seqs, args.mechanism);
            if !args.json {
                for (loc, cert) in &certs {
                    println!(
                        "{loc}: {} interleavings, {} classes, {}{}",
                        cert.interleavings,
                        cert.classes,
                        if cert.deterministic {
                            "deterministic"
                        } else {
                            "NON-DETERMINISTIC"
                        },
                        if cert.truncated { " (truncated)" } else { "" },
                    );
                }
            }
            report
        }
        Command::Integrity => integrity_lint_models(&models, &args.seqs, args.mechanism),
        Command::Fleet => {
            let mut report = hetero_analyze::Report::new();
            report.extend(hetero_analyze::check_retry_policy(
                &RetryPolicy::standard(),
                "RetryPolicy::standard",
            ));
            let sim = FleetSim::new(FleetConfig::standard(42, 64, 600));
            let cmp = sim.compare();
            if !args.json {
                println!(
                    "fleet[seed=42,devices=64]: robust lost={} att={}ppm | naive lost={} att={}ppm",
                    cmp.robust.lost,
                    cmp.robust.attainment_ppm,
                    cmp.naive.lost,
                    cmp.naive.attainment_ppm
                );
            }
            report.extend(hetero_analyze::check_fleet_arm(
                &cmp.robust,
                "fleet[42]/robust",
            ));
            report
        }
        Command::Monitor(path) => {
            let mut report = hetero_analyze::Report::new();
            // (c) exhaustive model check of the shipped policy product.
            let (cert, diags) = hetero_analyze::check_policy_product(
                &hetero_analyze::PolicyAutomata::standard(),
                &hetero_analyze::ModelOptions::default(),
                "PolicyAutomata::standard",
            );
            if !args.json {
                println!(
                    "model-check[standard]: {} states, {} transitions, max-retry-chain={}, \
                     livelock-free={}, open-escapable={}, retry-bounded={}{}",
                    cert.states,
                    cert.transitions,
                    cert.max_retry_chain,
                    cert.livelock_free,
                    cert.open_escapable,
                    cert.retry_bounded,
                    if cert.truncated { " (truncated)" } else { "" },
                );
            }
            report.extend(diags);
            // Same treatment for the staged-rollout ladder.
            let (rollout_cert, rollout_diags) = hetero_analyze::check_rollout_product(
                &hetero_analyze::RolloutAutomata::standard(),
                &hetero_analyze::RolloutOptions::default(),
                "RolloutAutomata::standard",
            );
            if !args.json {
                println!(
                    "model-check[rollout]: {} states, {} transitions, promote-reachable={}, \
                     rollback-reachable={}",
                    rollout_cert.states,
                    rollout_cert.transitions,
                    rollout_cert.promote_reachable,
                    rollout_cert.rollback_reachable,
                );
            }
            report.extend(rollout_diags);
            // (b) pLTL sweep over event logs: from FILE (a fleet log
            // pair or a rollout log set), stdin (`-`), or a fresh
            // seeded in-process run.
            let logs: Vec<hetero_fleet::FleetEventLog> = match path {
                Some(path) => {
                    let text = if path == "-" {
                        match std::io::read_to_string(std::io::stdin()) {
                            Ok(t) => t,
                            Err(e) => {
                                eprintln!("cannot read stdin: {e}");
                                return ExitCode::from(2);
                            }
                        }
                    } else {
                        match std::fs::read_to_string(&path) {
                            Ok(t) => t,
                            Err(e) => {
                                eprintln!("cannot read {path}: {e}");
                                return ExitCode::from(2);
                            }
                        }
                    };
                    match serde_json::from_str::<hetero_fleet::FleetLogPair>(&text) {
                        Ok(pair) => vec![pair.robust, pair.naive],
                        Err(pair_err) => {
                            match serde_json::from_str::<hetero_fleet::RolloutLogSet>(&text) {
                                Ok(set) => set.runs,
                                Err(set_err) => {
                                    eprintln!(
                                        "cannot parse {path} as a fleet event-log pair \
                                         ({pair_err}) or a rollout log set ({set_err})"
                                    );
                                    return ExitCode::from(2);
                                }
                            }
                        }
                    }
                }
                None => {
                    let sim = FleetSim::new(FleetConfig::standard(42, 64, 600));
                    let pair = sim.compare_events().1;
                    vec![pair.robust, pair.naive]
                }
            };
            for log in &logs {
                let verdict = hetero_analyze::monitor_fleet_log(log);
                if !args.json {
                    println!(
                        "monitor[fleet[{}]/{}]: events={} instances={} violations={}",
                        log.seed, log.policy, verdict.events, verdict.instances, verdict.violations
                    );
                }
                report.extend(verdict.findings);
            }
            report
        }
        Command::Bound => {
            // One representative prefill length (the paper's misaligned
            // 300) unless the user narrowed --seq, like `race`.
            let seq = if args.seqs == DEFAULT_SEQS {
                300
            } else {
                args.seqs.first().copied().unwrap_or(300)
            };
            let mut report = bound_lint_models(&models, seq, 4, DEFAULT_POOL_BYTES);
            for model in &models {
                report.merge(bound_lint_degraded_session(model, 42, seq));
            }
            report
        }
    };

    if args.json {
        println!("{}", report.to_json());
    } else {
        for d in &report.findings {
            println!("{d}");
        }
        println!(
            "checked {} artifacts: {} deny, {} warn",
            report.summary.checked, report.summary.deny, report.summary.warn
        );
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
