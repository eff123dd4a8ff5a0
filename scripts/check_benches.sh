#!/usr/bin/env bash
# Checks that every bench's verdicts hold and that the committed results
# reproduce.
#
# Runs every bench binary in BUILD_DIR/bench at full scale, except
# bench_micro_structures (Google Benchmark timings, no verdicts) and
# bench_shard_scaling (its threaded front end is not yet deterministic).
# Each must exit 0: a bench exits 1 on any [MISMATCH]. The six JSON
# benches run with --json, and each written file must equal its committed
# BENCH_*.json byte for byte; they are deterministic, so no tolerance is
# needed. Prints one line per bench and exits non-zero on any failure.
#
# Usage, from anywhere in the repository:
#   scripts/check_benches.sh build
#
# About 15 s in total (RelWithDebInfo build, 4 cores).

set -uo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
bench_dir=$(cd "$1" && pwd)/bench
if [[ ! -d $bench_dir ]]; then
  echo "check_benches: no bench directory under $1" >&2
  exit 2
fi
out=$(mktemp -d "${TMPDIR:-/tmp}/check_benches.XXXXXX")
trap 'rm -rf "$out"' EXIT

json_benches=(channel_scaling fault_tolerance gc_latency miss_overlap
              qd_sweep waf)

status=0
for exe in "$bench_dir"/bench_*; do
  name=${exe##*/bench_}
  case $name in micro_structures | shard_scaling) continue ;; esac
  args=()
  if [[ " ${json_benches[*]} " == *" $name "* ]]; then
    args=(--json "$out/BENCH_$name.json")
  fi
  "$exe" "${args[@]}" >"$out/$name.log" 2>&1
  rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "FAIL $name: exit $rc"
    grep -E 'MISMATCH' "$out/$name.log" || tail -n 20 "$out/$name.log"
    status=1
  elif [[ ${#args[@]} -gt 0 ]] &&
       ! cmp -s "$out/BENCH_$name.json" "$root/BENCH_$name.json"; then
    echo "FAIL $name: output differs from BENCH_$name.json"
    diff "$root/BENCH_$name.json" "$out/BENCH_$name.json" | head -n 20
    status=1
  else
    echo "ok   $name"
  fi
done
exit "$status"
