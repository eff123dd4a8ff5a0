#!/usr/bin/env bash
# Checks that the working tree prints the same simulated benchmark metrics
# as git revision REV.
#
# Builds perfbench for REV (in a temporary git worktree) and for the working
# tree, runs each benchmark workload with --seconds 1 --trace 0 at seeds 1
# and 2 on both, and diffs every printed line except the host-time metrics
# (host_kops, host_wall_kops, setup_s, host_rss_mb) and the per-repetition
# "rep" lines. Exits non-zero on any difference or failed run. A host-time
# change must pass it against its parent.
#
# Usage, from anywhere in the repository:
#   scripts/sim_identity.sh HEAD~1
#
# Builds and outputs go to a temporary directory under $TMPDIR (default
# /tmp), removed on exit; each side's build takes about a minute.

set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
if ! git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
  echo "sim_identity: unknown revision $rev" >&2
  exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/sim_identity.XXXXXX")
cleanup() {
  git -C "$root" worktree remove --force "$work/rev" 2>/dev/null || true
  git -C "$root" worktree prune
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$work/rev" "$rev"

workloads=(read_miss skewed_write sharded_mixed)
seeds=(1 2)
host='host_kops|host_wall_kops|setup_s|host_rss_mb'

# run_side NAME SOURCE_DIR: runs every workload and seed from SOURCE_DIR.
run_side() {
  local name=$1 src=$2 w s
  for w in "${workloads[@]}"; do
    for s in "${seeds[@]}"; do
      if ! CARGO_TARGET_DIR="$work/build-$name" python3 \
          "$src/perfbench/run.py" --workload "$w" --seed "$s" --seconds 1 \
          --trace 0 >"$work/$name-$w-$s.out" 2>>"$work/$name.log"; then
        echo "sim_identity: $name run failed ($w seed $s); log:" >&2
        tail -n 20 "$work/$name.log" >&2
        exit 1
      fi
    done
  done
}

# sim_only FILE: the run's output without host-time lines and JSON fields.
sim_only() {
  grep -v -E "^rep [0-9]+:|^($host) " "$1" |
    sed -E "s/\"($host)\": \\{[^}]*\\}(, )?//g; s/, \\}\\}\$/}}/"
}

echo "sim_identity: running $rev" >&2
run_side rev "$work/rev"
echo "sim_identity: running the working tree" >&2
run_side tree "$root"

status=0
for w in "${workloads[@]}"; do
  for s in "${seeds[@]}"; do
    if diff -u --label "$rev" --label "working tree" \
        <(sim_only "$work/rev-$w-$s.out") \
        <(sim_only "$work/tree-$w-$s.out"); then
      echo "identical: $w seed $s"
    else
      echo "DIFFERENT: $w seed $s"
      status=1
    fi
  done
done
exit "$status"
