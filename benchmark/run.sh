#!/usr/bin/env bash
# The benchmark in one command: builds the crate offline, then runs the
# four workloads untraced (the gated end-to-end metrics) and traced (the
# per-layer metrics and the waterfall), printing every metric as
# `workload metric value unit`. Results land in benchmark/out/.
#
#   benchmark/run.sh                 one set of runs
#   benchmark/run.sh --repeat N      N sets each for sides a and b of the
#                                    same code, alternating, then
#                                    bench_diff a b: do runs agree?
#   benchmark/run.sh --quick         2^14 entries, 2 s phases: smokes the
#                                    harness; bench_diff refuses the result
#   --seed N / --seconds S           passed through to bench_layers
set -euo pipefail
cd "$(dirname "$0")/.."

repeat=0
flags=()
while [ $# -gt 0 ]; do
    case "$1" in
        --repeat) repeat=$2; shift 2 ;;
        --quick) flags+=(--quick --seconds 2); shift ;;
        --seed | --seconds) flags+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

run_set() {
    for trace in 0 1; do
        for workload in join_dram point_cached scan_dram rw_hot; do
            # The last line is the driver's JSON; people read the rest.
            "$bin/bench_layers" --workload "$workload" --trace "$trace" \
                --out "$1" --commit "$commit" "${flags[@]}" | grep -v '^{'
        done
    done
}

if [ "$repeat" -eq 0 ]; then
    run_set benchmark/out
else
    rm -rf benchmark/out/a benchmark/out/b
    for i in $(seq "$repeat"); do
        run_set "benchmark/out/a/$i"
        run_set "benchmark/out/b/$i"
    done
    "$bin/bench_diff" benchmark/out/a benchmark/out/b
fi
