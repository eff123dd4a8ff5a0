#!/usr/bin/env bash
# Runs the mutation catalogue: checks that the tests guarding GC, recovery
# and the mapping cache fail when the code they guard is made wrong.
#
# Each non-comment line of the catalogue (scripts/mutants.tsv) has five or
# six tab-separated fields:
#
#   ID  FILE  TEXT  REPLACEMENT  VERDICT  REASON
#
# TEXT is exact source text of FILE and REPLACEMENT its mutant; both write
# a line break as \n. VERDICT is the ctest binary that must fail once the
# mutant is applied, or `equivalent` (no behaviour can tell the mutant
# apart) or `open` (no test kills it yet); those two need a REASON and are
# only matched, not built.
#
# The script copies the tree to a temporary directory, builds and runs each
# named test once unmutated (it must pass), then applies each killed-by
# mutant in turn, rebuilds that test and runs it. It exits non-zero when an
# entry's TEXT does not occur exactly once in FILE, when a named test fails
# on the unmutated tree, when a mutant does not compile, or when a mutant
# marked as killed survives. A mutant run gets 10 minutes and 4 GB of
# address space: one that loops or allocates without bound fails its test
# instead of starving the machine.
#
# Usage, from anywhere in the repository:
#   scripts/mutants.sh [CATALOGUE]
#
# The copy and its build live under $TMPDIR (default /tmp) and are removed
# on exit. About 15 s per killed mutant on 4 cores, plus one build.

set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
catalogue=$(realpath "${1:-$root/scripts/mutants.tsv}")
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT

cp -r "$root/CMakeLists.txt" "$root/src" "$root/tests" "$work/"
mkdir "$work/bench" "$work/examples"  # globbed by CMakeLists.txt; not built

# The entries, one per line, fields separated by \x1f: unlike tabs under
# `read`, it keeps empty fields (a REPLACEMENT may be empty).
entries=$(python3 - "$catalogue" <<'EOF'
import sys
for n, line in enumerate(open(sys.argv[1]), 1):
    line = line.rstrip("\n")
    if not line.strip() or line.startswith("#"):
        continue
    fields = line.split("\t")
    if len(fields) not in (5, 6):
        sys.exit(f"catalogue line {n}: {len(fields)} fields, want 5 or 6")
    print("\x1f".join(fields + [""] * (6 - len(fields))))
EOF
)

# mutate FILE TEXT REPLACEMENT [check]: replaces the one occurrence of TEXT
# in FILE, or with `check` only verifies that there is exactly one.
mutate() {
  python3 - "$@" <<'EOF'
import sys
path, text, repl = sys.argv[1], sys.argv[2], sys.argv[3]
text, repl = text.replace("\\n", "\n"), repl.replace("\\n", "\n")
with open(path) as f:
    source = f.read()
count = source.count(text)
if count != 1:
    sys.exit(f"text occurs {count} times in {path}")
if len(sys.argv) == 4:
    with open(path, "w") as f:
        f.write(source.replace(text, repl))
EOF
}

declare -a ids files texts repls verdicts
status=0
while IFS=$'\x1f' read -r id file text repl verdict reason; do
  if ! mutate "$work/$file" "$text" "$repl" check; then
    echo "ERROR $id: catalogue text no longer matches $file" >&2
    status=1
  elif [[ $verdict == equivalent || $verdict == open ]]; then
    if [[ -z $reason ]]; then
      echo "ERROR $id: $verdict without a reason" >&2
      status=1
    else
      echo "$verdict $id: $reason"
    fi
  else
    ids+=("$id") files+=("$file") texts+=("$text") repls+=("$repl")
    verdicts+=("$verdict")
  fi
done <<<"$entries"
[[ $status -eq 0 ]] || exit "$status"

jobs=${MUTANTS_JOBS:-$(nproc)}
build="$work/build"
cmake -S "$work" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
for t in $(printf '%s\n' "${verdicts[@]}" | sort -u); do
  cmake --build "$build" --target "$t" -j "$jobs" >/dev/null
  if ! "$build/tests/$t" >/dev/null 2>&1; then
    echo "ERROR: $t fails on the unmutated tree" >&2
    exit 1
  fi
done

for i in "${!ids[@]}"; do
  path="$work/${files[$i]}"
  cp "$path" "$path.orig"
  mutate "$path" "${texts[$i]}" "${repls[$i]}"
  if ! cmake --build "$build" --target "${verdicts[$i]}" -j "$jobs" \
      >"$work/build.log" 2>&1; then
    echo "ERROR ${ids[$i]}: mutant does not compile" >&2
    tail -n 20 "$work/build.log" >&2
    status=1
  elif (ulimit -v 4000000; timeout 600 "$build/tests/${verdicts[$i]}"; exit) \
      >/dev/null 2>&1; then
    echo "SURVIVED ${ids[$i]}: ${verdicts[$i]} passes with the mutant"
    status=1
  else
    echo "killed ${ids[$i]} by ${verdicts[$i]}"
  fi
  mv "$path.orig" "$path"
  touch "$path"  # newer than the mutant's object file: rebuilt next time
done
exit "$status"
