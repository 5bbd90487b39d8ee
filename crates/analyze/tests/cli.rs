//! End-to-end tests of the `analyze` binary's exit-code / JSON
//! contract: `--json` emits a machine-readable [`Report`] on stdout
//! *regardless* of the exit status, exit 0 means no deny-level
//! finding, exit 1 means at least one, and exit 2 is reserved for
//! usage errors (which emit no report).

use std::io::Write;
use std::process::{Command, Output, Stdio};

use hetero_fleet::{FleetConfig, FleetSim};

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("run analyze binary")
}

fn report_json(out: &Output) -> serde_json::Value {
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 stdout");
    serde_json::from_str(&stdout).expect("stdout is one parseable Report")
}

#[test]
fn bound_subcommand_is_clean_and_emits_report_json() {
    let out = analyze(&["bound", "--model", "internlm-1.8b", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report = report_json(&out);
    assert_eq!(report["version"], 1);
    assert_eq!(report["summary"]["deny"], 0);
    assert!(
        report["summary"]["checked"].as_u64().unwrap() > 0,
        "bound sweep checked nothing: {report}"
    );
    assert!(report["findings"].as_array().unwrap().is_empty());
}

#[test]
fn deny_exit_still_emits_report_json() {
    // A structurally broken trace file: the timeline lint denies it,
    // but --json must still print the full report before exiting 1.
    let dir = std::env::temp_dir().join("hetero-analyze-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("broken_trace.json");
    std::fs::write(&path, "{\"traceEvents\": [{\"ph\": \"B\"}]}").expect("write trace");

    let out = analyze(&["timeline", path.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let report = report_json(&out);
    assert!(report["summary"]["deny"].as_u64().unwrap() > 0);
    assert!(!report["findings"].as_array().unwrap().is_empty());
}

#[test]
fn unparseable_input_exits_two_for_timeline_and_monitor() {
    // 100k unclosed brackets: past the JSON parser's nesting limit, so a
    // typed parse error rather than a stack overflow.
    let dir = std::env::temp_dir().join("hetero-analyze-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep_nesting.json");
    std::fs::write(&path, "[".repeat(100_000)).expect("write input");
    let path = path.to_str().unwrap();
    for sub in ["timeline", "monitor"] {
        let out = analyze(&[sub, path, "--json"]);
        assert_eq!(out.status.code(), Some(2), "{sub}: {out:?}");
        assert!(out.stdout.is_empty(), "{sub}: parse errors emit no report");
    }
}

/// Run `analyze monitor - --json` on `input` fed through stdin.
fn monitor_stdin(input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["monitor", "-", "--json"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run analyze binary");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("analyze exits")
}

#[test]
fn monitor_reads_a_v1_log_pair_without_rollout_window() {
    let (_, mut pair) = FleetSim::new(FleetConfig::standard(42, 8, 40)).compare_events();
    pair.robust.version = 1;
    pair.naive.version = 1;
    let json = serde_json::to_string(&pair).expect("serialize pair");
    let v1 = json.replace(r#""rollout_window_ns":0,"#, "");
    assert_eq!(json.len() - v1.len(), 2 * r#""rollout_window_ns":0,"#.len());
    let out = monitor_stdin(&v1);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(report_json(&out)["summary"]["deny"], 0);
}

#[test]
fn monitor_parse_error_names_both_log_shapes() {
    let (_, pair) = FleetSim::new(FleetConfig::standard(42, 8, 40)).compare_events();
    let json = serde_json::to_string(&pair).expect("serialize pair");
    let bad = json.replacen(r#""seed":42"#, r#""seed":"42""#, 1);
    let out = monitor_stdin(&bad);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("expected unsigned integer, got string"),
        "the pair's own error: {stderr}"
    );
    assert!(
        stderr.contains("missing field `runs`"),
        "the rollout set's error: {stderr}"
    );
}

#[test]
fn usage_errors_exit_two() {
    let out = analyze(&["no-such-subcommand"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "usage errors emit no report");

    let out = analyze(&["bound", "--model", "no-such-model"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
