#!/usr/bin/env bash
# Runs `all_experiments quick` once, prints its whole output (host tables
# and wall times included), and diffs every simulated table against the
# pinned golden file beside this script. Host-measured output is filtered
# out of the diff: the `fig2_breakdown` section (host-calibrated operator
# costs), the "Host CPU hash cost" table and the `# <name>: <s> s`
# wall-time lines. A failing run fails the script before anything is
# diffed or pinned.
#
#   crates/bench/golden/check.sh          # diff; exits non-zero on any change
#   crates/bench/golden/check.sh --pin    # rewrite the golden file
set -euo pipefail
cd "$(dirname "$0")/../../.."
golden=crates/bench/golden/all_experiments_quick.txt
run=$(mktemp)
filtered=$(mktemp)
trap 'rm -f "$run" "$filtered"' EXIT
# `all_experiments` launches its sibling harness binaries: build them all.
cargo build --release --quiet -p widx-bench --bins
status=0
cargo run --release --quiet --bin all_experiments -- quick > "$run" || status=$?
cat "$run"
if (( status != 0 )); then
    echo "check.sh: all_experiments quick exited with status $status" >&2
    exit "$status"
fi
awk '
    /^# fig2_breakdown |^== Host CPU hash cost ==$/ { skip = 1 }
    /^# [a-z0-9_]+: [0-9.]+ s$/ { skip = 0; next }
    !skip' "$run" > "$filtered"
if [[ "${1:-}" == "--pin" ]]; then
    mv "$filtered" "$golden"
else
    diff -u "$golden" "$filtered"
fi
