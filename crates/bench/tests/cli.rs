//! Command-line contract of every `hetero-bench` binary: `--help`
//! lists exactly the binary's flag table and exits 0; usage errors and
//! unwritable output paths exit 2 before or instead of a result; failed
//! gates are named on stderr and exit 1 — never a panic.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, ModelConfig};

/// Every binary with the flags of its table (the shared `--analyze`
/// and `--help` rows come on top).
const BINS: &[(&str, &str, &[&str])] = &[
    (
        "ablate_alignment",
        env!("CARGO_BIN_EXE_ablate_alignment"),
        &[],
    ),
    (
        "ablate_arrivals",
        env!("CARGO_BIN_EXE_ablate_arrivals"),
        &[],
    ),
    ("ablate_battery", env!("CARGO_BIN_EXE_ablate_battery"), &[]),
    (
        "ablate_coldstart",
        env!("CARGO_BIN_EXE_ablate_coldstart"),
        &[],
    ),
    (
        "ablate_kv_quant",
        env!("CARGO_BIN_EXE_ablate_kv_quant"),
        &[],
    ),
    ("ablate_mempool", env!("CARGO_BIN_EXE_ablate_mempool"), &[]),
    (
        "ablate_min_gain",
        env!("CARGO_BIN_EXE_ablate_min_gain"),
        &[],
    ),
    (
        "ablate_profiler",
        env!("CARGO_BIN_EXE_ablate_profiler"),
        &[],
    ),
    (
        "ablate_speculative",
        env!("CARGO_BIN_EXE_ablate_speculative"),
        &[],
    ),
    (
        "ablate_strategies",
        env!("CARGO_BIN_EXE_ablate_strategies"),
        &[],
    ),
    ("ablate_thermal", env!("CARGO_BIN_EXE_ablate_thermal"), &[]),
    (
        "compare_socs",
        env!("CARGO_BIN_EXE_compare_socs"),
        &["--jobs"],
    ),
    (
        "fault_sweep",
        env!("CARGO_BIN_EXE_fault_sweep"),
        &[
            "--seed",
            "--requests",
            "--jobs",
            "--json",
            "--integrity",
            "--trace-out",
            "--metrics",
        ],
    ),
    (
        "fig02_gpu_linear",
        env!("CARGO_BIN_EXE_fig02_gpu_linear"),
        &[],
    ),
    (
        "fig04_npu_stage",
        env!("CARGO_BIN_EXE_fig04_npu_stage"),
        &[],
    ),
    (
        "fig05_order_shape",
        env!("CARGO_BIN_EXE_fig05_order_shape"),
        &[],
    ),
    (
        "fig06_bandwidth",
        env!("CARGO_BIN_EXE_fig06_bandwidth"),
        &[],
    ),
    (
        "fig09_graph_gen",
        env!("CARGO_BIN_EXE_fig09_graph_gen"),
        &[],
    ),
    (
        "fig13_prefill",
        env!("CARGO_BIN_EXE_fig13_prefill"),
        &["--trace-out", "--jobs"],
    ),
    (
        "fig14_misaligned",
        env!("CARGO_BIN_EXE_fig14_misaligned"),
        &[],
    ),
    (
        "fig15_fastsync_prefill",
        env!("CARGO_BIN_EXE_fig15_fastsync_prefill"),
        &[],
    ),
    (
        "fig16_decode",
        env!("CARGO_BIN_EXE_fig16_decode"),
        &["--trace-out", "--jobs"],
    ),
    (
        "fig17_fastsync_decode",
        env!("CARGO_BIN_EXE_fig17_fastsync_decode"),
        &[],
    ),
    (
        "fig18_interference",
        env!("CARGO_BIN_EXE_fig18_interference"),
        &[],
    ),
    ("fig19_energy", env!("CARGO_BIN_EXE_fig19_energy"), &[]),
    (
        "fleet_sweep",
        env!("CARGO_BIN_EXE_fleet_sweep"),
        &[
            "--seed",
            "--devices",
            "--requests",
            "--jobs",
            "--json",
            "--events-out",
        ],
    ),
    (
        "heterollm_sim",
        env!("CARGO_BIN_EXE_heterollm_sim"),
        &[
            "--model",
            "--engine",
            "--prompt",
            "--decode",
            "--sync",
            "--trace-out",
            "--metrics",
        ],
    ),
    ("report", env!("CARGO_BIN_EXE_report"), &[]),
    (
        "rollout_sweep",
        env!("CARGO_BIN_EXE_rollout_sweep"),
        &[
            "--seed",
            "--devices",
            "--requests",
            "--jobs",
            "--json",
            "--events-out",
        ],
    ),
    ("table1_socs", env!("CARGO_BIN_EXE_table1_socs"), &[]),
    (
        "table2_accuracy",
        env!("CARGO_BIN_EXE_table2_accuracy"),
        &[],
    ),
    (
        "table2_frameworks",
        env!("CARGO_BIN_EXE_table2_frameworks"),
        &[],
    ),
    (
        "timeline",
        env!("CARGO_BIN_EXE_timeline"),
        &[
            "--model",
            "--engine",
            "--prompt",
            "--decode",
            "--sync",
            "--width",
            "--trace-out",
        ],
    ),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {exe}: {e}"))
}

fn exe(bin: &str) -> &'static str {
    BINS.iter()
        .find(|(name, ..)| *name == bin)
        .map(|&(_, exe, _)| exe)
        .unwrap_or_else(|| panic!("no binary {bin}"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Assert a usage error: exit 2, nothing on stdout, no panic.
fn assert_usage_error(bin: &str, args: &[&str]) -> String {
    let out = run(exe(bin), args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
    assert!(out.stdout.is_empty(), "{bin} {args:?}: {}", stdout(&out));
    assert!(!err.contains("panicked"), "{bin} {args:?}: {err}");
    err
}

/// The help row of `flag` in `bin --help`.
fn help_row(bin: &str, flag: &str) -> String {
    let help = stdout(&run(exe(bin), &["--help"]));
    help.lines()
        .find(|l| l.trim_start().starts_with(&format!("{flag} ")))
        .unwrap_or_else(|| panic!("{bin} --help has no {flag} row:\n{help}"))
        .to_string()
}

#[test]
fn help_lists_exactly_the_flag_table() {
    for &(bin, exe, flags) in BINS {
        let out = run(exe, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin} --help: {out:?}");
        let listed: BTreeSet<String> = stdout(&out)
            .lines()
            .filter_map(|l| l.strip_prefix("  --"))
            .map(|l| format!("--{}", l.split([' ', ',']).next().unwrap_or_default()))
            .collect();
        let expected: BTreeSet<String> = flags
            .iter()
            .chain(&["--analyze", "--help"])
            .map(|f| f.to_string())
            .collect();
        assert_eq!(listed, expected, "{bin} --help");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for &(bin, ..) in BINS {
        let err = assert_usage_error(bin, &["--bogus"]);
        assert!(
            err.contains(&format!("{bin}: unknown flag '--bogus'")),
            "{err}"
        );
    }
}

#[test]
fn jobs_is_validated_and_only_accepted_where_declared() {
    for &(bin, _, flags) in BINS {
        assert_usage_error(bin, &["--jobs", "0"]);
        if !flags.contains(&"--jobs") {
            assert_usage_error(bin, &["--jobs", "2"]);
            assert_usage_error(bin, &["--jobs", "junk"]);
            assert_usage_error(bin, &["--jobs"]);
        }
    }
}

#[test]
fn bad_values_exit_two_before_the_analyzer_runs() {
    for (bin, args, message) in [
        (
            "fleet_sweep",
            &["--analyze", "--seed", "junk"][..],
            "fleet_sweep: bad value 'junk' for --seed",
        ),
        (
            "fleet_sweep",
            &["--devices", "0"],
            "fleet_sweep: bad value '0' for --devices",
        ),
        (
            "fig13_prefill",
            &["--jobs", "0"],
            "fig13_prefill: bad value '0' for --jobs",
        ),
        (
            "heterollm_sim",
            &["--model", "llama-9b"],
            "heterollm_sim: bad value 'llama-9b' for --model",
        ),
        (
            "timeline",
            &["--width", "19"],
            "timeline: bad value '19' for --width",
        ),
        (
            "timeline",
            &["--sync", "slow"],
            "timeline: bad value 'slow' for --sync",
        ),
        (
            "rollout_sweep",
            &["--json", "--seed"],
            "--seed needs a value",
        ),
    ] {
        let err = assert_usage_error(bin, args);
        assert!(err.contains(message), "{bin} {args:?}: {err}");
        assert!(!err.contains("[analyze]"), "{bin} {args:?}: {err}");
    }
}

#[test]
fn enumerated_flags_list_every_valid_value() {
    for bin in ["heterollm_sim", "timeline"] {
        let values = |flag: &str| -> Vec<String> {
            let row = help_row(bin, flag);
            let list = row
                .split_once("one of ")
                .and_then(|(_, rest)| rest.split_once(" (default"))
                .unwrap_or_else(|| panic!("{bin} {flag} row lists no values: {row}"))
                .0;
            list.split(", ").map(str::to_string).collect()
        };
        for name in values("--model") {
            assert!(ModelConfig::by_name(&name).is_some(), "{bin}: {name}");
        }
        let engines: BTreeSet<String> = values("--engine")
            .iter()
            .map(|n| n.parse::<EngineKind>().expect(n).name().to_string())
            .collect();
        let all: BTreeSet<String> = EngineKind::ALL.iter().map(|e| e.name().into()).collect();
        assert_eq!(engines, all, "{bin} --engine must list every engine");
        let sync = help_row(bin, "--sync");
        for name in ["fast", "driver"] {
            assert!(name.parse::<SyncMechanism>().is_ok());
            assert!(sync.contains(name), "{bin}: {sync}");
        }
    }
}

#[test]
fn unwritable_output_path_exits_two() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/no-such-dir/out.json");
    for (bin, args) in [
        (
            "fleet_sweep",
            &["--devices", "8", "--requests", "20", "--events-out", path][..],
        ),
        ("rollout_sweep", &["--events-out", path]),
        ("fault_sweep", &["--trace-out", path]),
        ("fig13_prefill", &["--trace-out", path]),
        ("fig16_decode", &["--trace-out", path]),
        ("heterollm_sim", &["--trace-out", path]),
        ("timeline", &["--trace-out", path]),
    ] {
        let out = run(exe(bin), args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{bin}: {err}");
        assert!(
            err.contains(&format!("{bin}: cannot write {path}: ")),
            "{bin}: {err}"
        );
        assert!(!err.contains("panicked"), "{bin}: {err}");
    }
}

#[test]
fn failed_gates_exit_one_without_panicking() {
    for (bin, args, gate) in [
        (
            "fault_sweep",
            &["--requests", "2"][..],
            "fault_sweep: gate failed: adaptive p99 TTFT",
        ),
        (
            "rollout_sweep",
            &["--devices", "16", "--requests", "100"],
            "rollout_sweep: gate failed: blast radius",
        ),
    ] {
        let out = run(exe(bin), args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {err}");
        assert!(err.contains(gate), "{bin} {args:?}: {err}");
        assert!(!err.contains("panicked"), "{bin} {args:?}: {err}");
    }
}
