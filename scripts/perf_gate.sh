#!/usr/bin/env bash
# Performance gate, measured by the repository's benchmark (perfbench/).
#
# 1. Serial calibration rate. Runs perfbench's traced fleet_10k workload
#    pinned to one CPU, so calibration runs on one worker, and reads
#    fleet.calib_sessions / fleet.calibrate_devices.s (calibration
#    sessions per host second) from its JSON result line. Fails when the
#    rate is under 80% of BASELINE below.
# 2. Parallel speedup, on 4 or more cores only. Times the 1000-device
#    fleet_sweep at --jobs 1 and at --jobs $(nproc): the two outputs must
#    be byte-identical and the speedup at least 2x.
#
#   ./scripts/perf_gate.sh
#
# Exit codes: 0 every gate holds; 1 a gate fails (rate under the floor,
# speedup under 2x, the sweep outputs differ, or perfbench reports a
# failed check); 2 perfbench's last line is missing, is not JSON or
# lacks a metric, or a build fails.
set -u

cd "$(dirname "$0")/.."
unset CARGO_TARGET_DIR

# Serial calibration sessions/s on a 2-vCPU x86-64 VM (2.1 GHz): the
# median of 7 runs of part 1.
BASELINE=10253

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

# --- 1. serial calibration rate ----------------------------------------
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml || exit 2
taskset -c 0 perfbench/target/release/perfbench \
    --workload fleet_10k --seed 1 --seconds 1 --trace 1 >"$tmp/perfbench.out"
cat "$tmp/perfbench.out"
last=$(tail -n 1 "$tmp/perfbench.out")
parsed=$(printf '%s\n' "$last" | python3 -c '
import json, sys
try:
    r = json.loads(sys.stdin.read())
    m = r["metrics"]
    rate = m["fleet.calib_sessions"]["value"] / m["fleet.calibrate_devices.s"]["value"]
    print(int(r["correct"] is True), int(r["failed"]), int(rate))
except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
    print(f"perf-gate: cannot read the result line: {e!r}", file=sys.stderr)
    sys.exit(2)
') || exit 2
read -r correct failed rate <<<"$parsed"
if [ "$correct" -ne 1 ] || [ "$failed" -gt 0 ]; then
    echo "perf-gate: perfbench reports a failed check ($failed failed)" >&2
    fail=1
fi
floor=$((BASELINE * 80 / 100))
if [ "$rate" -lt "$floor" ]; then
    echo "perf-gate: serial calibration $rate sessions/s is under the floor $floor (baseline $BASELINE)" >&2
    fail=1
else
    echo "perf-gate: serial calibration $rate sessions/s, floor $floor (baseline $BASELINE) [ok]"
fi

# --- 2. parallel speedup, 4 or more cores --------------------------------
cores=$(nproc)
if [ "$cores" -ge 4 ]; then
    cargo build --release --offline --quiet -p hetero-bench --bin fleet_sweep || exit 2
    sweep() {
        target/release/fleet_sweep --devices 1000 --requests 3000 --seed 42 --jobs "$1"
    }
    t0=$(date +%s%N)
    sweep 1 >"$tmp/serial.out"
    t1=$(date +%s%N)
    sweep "$cores" >"$tmp/parallel.out"
    t2=$(date +%s%N)
    if ! cmp -s "$tmp/serial.out" "$tmp/parallel.out"; then
        echo "perf-gate: fleet_sweep --jobs 1 and --jobs $cores outputs differ:" >&2
        diff "$tmp/serial.out" "$tmp/parallel.out" >&2
        fail=1
    fi
    parallel_ns=$((t2 - t1))
    speedup_x100=$(((t1 - t0) * 100 / (parallel_ns > 0 ? parallel_ns : 1)))
    if [ "$speedup_x100" -lt 200 ]; then
        echo "perf-gate: fleet_sweep --jobs $cores speedup ${speedup_x100}/100x is under 2x on $cores cores" >&2
        fail=1
    else
        echo "perf-gate: fleet_sweep --jobs $cores speedup ${speedup_x100}/100x, byte-identical to --jobs 1 [ok]"
    fi
else
    echo "perf-gate: $cores cores, the speedup gate needs 4 [skipped]"
fi

exit "$fail"
