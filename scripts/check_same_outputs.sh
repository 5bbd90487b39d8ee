#!/usr/bin/env bash
# Same-outputs check: builds REV (any commit, branch or tag) in a
# temporary git worktree, runs one deterministic command list on that
# tree and on this checkout, and diffs everything they print and write.
#
#   ./scripts/check_same_outputs.sh REV
#
# The command list: every hetero-bench binary with no flags; `analyze
# --json`; `analyze bound|explore|integrity --json`; `analyze race
# --json` with and without `--mechanism driver`; `fleet_sweep --devices
# 1000 --seed 42 --json`; `rollout_sweep --seed 42 --json`; `fault_sweep
# --seed 42 --json`; `fault_sweep --integrity --seed 42 --requests 12
# --json` (the CI SDC gate, which runs the functional engine's timing
# path); the serialized event logs, `fleet_sweep --seed 42 --events-out
# F` and `rollout_sweep --seed 42 --events-out F`, each read back by
# `analyze monitor F --json`. Stdout, stderr and the exit code of each
# are compared, as are the experiment JSON files the binaries write
# under target/experiments/, the two event-log files and the
# EXPERIMENTS.md that `report` regenerates.
# Masked before comparing: each tree's own path.
#
# Both trees build offline in release mode, each into its own target/.
# `report` rewrites this checkout's EXPERIMENTS.md; the file is restored
# on exit. Exit codes: 0 all outputs identical, 1 some output differs
# (the diff is printed), 2 usage or build error.
set -u

cd "$(dirname "$0")/.."
root=$(pwd)

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "check-same-outputs: unknown revision '$1'" >&2
    exit 2
}

tmp=$(mktemp -d)
base="$tmp/base"
cp EXPERIMENTS.md "$tmp/EXPERIMENTS.md.keep"
cleanup() {
    cp "$tmp/EXPERIMENTS.md.keep" "$root/EXPERIMENTS.md"
    git -C "$root" worktree remove --force "$base" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 2' INT TERM
unset CARGO_TARGET_DIR

git worktree add --quiet --detach "$base" "$rev" || exit 2

commands() {
    for src in crates/bench/src/bin/*.rs; do
        basename "$src" .rs
    done
    cat <<'EOF'
analyze --json
analyze bound --json
analyze explore --json
analyze integrity --json
analyze race --json
analyze race --mechanism driver --json
fleet_sweep --devices 1000 --seed 42 --json
rollout_sweep --seed 42 --json
fault_sweep --seed 42 --json
fault_sweep --integrity --seed 42 --requests 12 --json
fleet_sweep --seed 42 --events-out target/same_outputs/fleet_events.json
rollout_sweep --seed 42 --events-out target/same_outputs/rollout_events.json
analyze monitor target/same_outputs/fleet_events.json --json
analyze monitor target/same_outputs/rollout_events.json --json
EOF
}

# run TREE OUT: build TREE, run the command list in it, write masked
# outputs under OUT.
run() {
    local tree=$1 out=$2
    echo "check-same-outputs: building $tree" >&2
    (cd "$tree" && cargo build --release --offline --quiet --workspace) || exit 2
    mkdir -p "$out/experiments" "$tree/target/same_outputs"
    rm -f "$tree"/target/same_outputs/*.json
    commands | while read -r bin args; do
        local name
        name=$(printf '%s' "$bin${args:+ $args}" | tr -c 'A-Za-z0-9_-' '_')
        # shellcheck disable=SC2086 # args split into flags on purpose
        (cd "$tree" && "./target/release/$bin" $args </dev/null \
            >"$out/$name.out" 2>"$out/$name.err")
        echo "exit $?" >>"$out/$name.out"
    done
    # Only the files this run wrote: target/ may hold older ones.
    grep -ho '^\[saved [^]]*\]' "$out"/*.out | sed 's/^\[saved //; s/\]$//' | sort -u |
        while read -r file; do
        cp "$file" "$out/experiments/"
    done
    cp "$tree"/target/same_outputs/*.json "$out/experiments/"
    cp "$tree/EXPERIMENTS.md" "$out/EXPERIMENTS.md"
    sed -i "s|$tree|<tree>|g" "$out"/*.out "$out"/*.err "$out/EXPERIMENTS.md"
}

run "$base" "$tmp/out/rev"
run "$root" "$tmp/out/checkout"

if (cd "$tmp/out" && diff -ru rev checkout); then
    echo "check-same-outputs: $(commands | wc -l) commands, every output identical to $1"
else
    echo "check-same-outputs: outputs differ from $1" >&2
    exit 1
fi
