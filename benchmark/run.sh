#!/usr/bin/env bash
# The benchmark's one command. Builds offline, then runs each workload
# in a fresh process. Run it from the repository root.
#
#   benchmark/run.sh [--seed N] [--runs K] [--set NAME] [--quick]
#       Every workload: K end-to-end runs (seeds N..N+K-1, tracing off)
#       and one traced run; one `workload metric value unit` line per
#       metric; rows recorded in benchmark/out/sets/NAME.jsonl; the ladder
#       pair's model-vs-wall verdict; and (unless --quick) one row per
#       end-to-end run appended to benchmark/history.jsonl.
#       Exits non-zero if a correctness check fails.
#       --quick: every workload and check at 1/10 length (a smoke run).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload (what BENCHMARK.json's command gets);
#       the last line of output is the result as one JSON object.
#
#   benchmark/run.sh compare SET_A.jsonl SET_B.jsonl
#       Compare two recorded sets under BENCHMARK.json's bounds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"

# An offline build from source. The target directory is wherever
# CARGO_TARGET_DIR points (relative to the caller's directory, as cargo
# reads it), else benchmark/target.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/recmg-benchmark"

if [[ "${1:-}" == "compare" ]]; then
    shift
    exec "$bin" compare "$@" --contract "$root/BENCHMARK.json"
fi

workload="" seed=1 seconds="" trace="" runs=1 set_name="" quick=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --set) set_name="$2"; shift 2 ;;
        --quick) quick="--quick"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [[ -z "$seconds" ]]; then
    if [[ -n "$quick" ]]; then
        seconds=1
    else
        seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
    fi
fi

if [[ -n "$workload" ]]; then
    exec "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "${trace:-0}" --out "$out" $quick
fi

set_name="${set_name:-seed$seed${quick:+-quick}}"
mkdir -p "$out/sets"
set_file="$out/sets/$set_name.jsonl"
: > "$set_file"
status=0
for w in guided_plane churn_unguided ladder_blocking ladder_async open_poisson; do
    for ((i = 0; i < runs; i++)); do
        "$bin" run --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0 \
            --out "$out" --record "$set_file" $quick | grep -v '^{' || status=1
    done
    "$bin" run --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
        --out "$out" --record "$set_file" $quick | grep -v '^{' || status=1
done

if [[ -n "$quick" ]]; then
    "$bin" summary "$set_file"
else
    commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
    if [[ -n "$(git -C "$root" status --porcelain 2>/dev/null || true)" ]]; then
        commit="$commit+dirty"
    fi
    "$bin" summary "$set_file" --history "$here/history.jsonl" --commit "$commit"
fi
echo "recorded $set_file"
if [[ $status -ne 0 ]]; then
    echo "run.sh: a correctness check failed" >&2
fi
exit $status
