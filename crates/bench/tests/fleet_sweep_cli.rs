//! Exit-code contract of the `fleet_sweep` binary: a failed serving
//! gate is named on stderr and exits 1 — never a panic — and the CI
//! shape passes every gate with exit 0.

use std::process::{Command, Output};

fn fleet_sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
        .args(args)
        .output()
        .expect("run fleet_sweep binary")
}

#[test]
fn failed_gate_exits_one_without_panicking() {
    // Too few requests for the tail quantiles to resolve: both arms read
    // the histogram's saturated top bucket, so "robust p999 beats
    // round-robin" cannot hold.
    let out = fleet_sweep(&["--devices", "64", "--requests", "300"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gate failed: robust p999 TTFT"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn ci_shape_passes_every_gate() {
    let out = fleet_sweep(&["--devices", "1000", "--seed", "42"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
