#!/usr/bin/env bash
# Diffs every simulated table of `all_experiments quick` against the
# pinned golden file beside this script. Host-measured output is filtered
# out first: the `fig2_breakdown` section (host-calibrated operator
# costs), the "Host CPU hash cost" table and the `# <name>: <s> s`
# wall-time lines.
#
#   crates/bench/golden/check.sh          # diff; exits non-zero on any change
#   crates/bench/golden/check.sh --pin    # rewrite the golden file
set -euo pipefail
cd "$(dirname "$0")/../../.."
golden=crates/bench/golden/all_experiments_quick.txt
filtered() {
    cargo run --release --quiet --bin all_experiments -- quick | awk '
        /^# fig2_breakdown |^== Host CPU hash cost ==$/ { skip = 1 }
        /^# [a-z0-9_]+: [0-9.]+ s$/ { skip = 0; next }
        !skip'
}
if [[ "${1:-}" == "--pin" ]]; then
    filtered > "$golden"
else
    diff -u "$golden" <(filtered)
fi
