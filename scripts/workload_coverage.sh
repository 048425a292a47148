#!/usr/bin/env bash
# Prints the lines of the named source files that the three perfbench
# workloads never execute, as ranges of three or more lines:
#
#   scripts/workload_coverage.sh src/xquery/eval.cc [src/xml/node.cc ...]
#
# Run from the root of a checkout; needs cmake, gcov and python3. The first
# run configures the perfbench driver with --coverage at -O0 (so each line
# keeps its own count) under .bench_build/coverage, which perfbench/run.py
# then builds and reuses through CARGO_TARGET_DIR. Every run deletes the
# previous counts, runs all three workloads at seed 1 for 3 s each, and
# fails unless every result says "correct": true.
set -euo pipefail
[ $# -gt 0 ] || { echo "usage: $0 <src file>..." >&2; exit 2; }
out=.bench_build/coverage
tree=$out/perfbench
if [ ! -f "$tree/CMakeCache.txt" ]; then
  cmake -S perfbench -B "$tree" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O0 -g -DNDEBUG" \
    -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >&2
fi
find "$out" -name '*.gcda' -delete
results=$(CARGO_TARGET_DIR=$out python3 perfbench/run.py --workload all \
  --seed 1 --seconds 3 --trace 0 | grep '^{')
if [ "$(grep -c '"correct": true' <<<"$results")" -ne 3 ]; then
  echo "$results" >&2
  echo "a workload was not correct" >&2
  exit 1
fi

# gcov -t prints every source of one object as "count:line:text" rows; a
# count of ##### or ===== is a line that never ran, - is no code at all.
# The first row per line is the total over template instantiations.
read -r -d '' unexecuted <<'EOF' || true
import os, re, sys
want, label = os.path.realpath(sys.argv[1]), sys.argv[1]
counts, source = {}, None
for row in sys.stdin:
    m = re.match(r"\s*([^:]+):\s*(\d+):(.*)", row)
    if not m:
        continue
    count, line = m.group(1).strip().rstrip("*"), int(m.group(2))
    if line == 0:
        if m.group(3).startswith("Source:"):
            source = os.path.realpath(m.group(3)[len("Source:"):])
    elif source == want and count != "-":
        counts.setdefault(line, count in ("#####", "====="))
runs, start = [], None
for line in sorted(counts) + [None]:
    if line is not None and counts[line]:
        start, end = start or line, line
    elif start is not None:
        runs.append((start, end))
        start = None
for a, b in runs:
    if b - a >= 2:
        print("%s:%d-%d" % (label, a, b))
EOF
for src in "$@"; do
  rel=${src#src/}
  gcda=$(echo "$tree"/lll/"$(dirname "$rel")"/CMakeFiles/*.dir/"$(basename "$rel")".gcda)
  [ -f "$gcda" ] || { echo "$src: no coverage data ($gcda)" >&2; exit 1; }
  (cd "$(dirname "$gcda")" && gcov -t "$(basename "$gcda")" 2>/dev/null) |
    python3 -c "$unexecuted" "$src"
done
