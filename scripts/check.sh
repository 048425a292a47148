#!/usr/bin/env bash
# The one-stop pre-merge gate:
#   1. tier-1: configure + build + full ctest in ./build
#   2. concurrency: ThreadSanitizer build + the `concurrency`-labeled tests
#
# Usage: scripts/check.sh [-jN]   (default -j2)
#
# An AddressSanitizer preset also exists for deeper sweeps (not run here, it
# roughly doubles the wall time):
#   cmake --preset asan && cmake --build --preset asan -j2 && ctest --preset asan

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:--j2}"

# Stray persistence artifacts (aborted test runs, manual daemon sessions)
# must not leak into the tree or get picked up by a later warm boot.
find . -path ./build -prune -o -path ./build-tsan -prune -o \
  -path ./build-asan -prune -o \
  \( -name '*.lllp' -o -name '*.llld' \) -print0 | xargs -0r rm -f

# Update-grammar <-> DESIGN.md drift guard: the statement productions in the
# update parser's grammar comment (src/xquery/update_parser.h) are the
# language's contract, and DESIGN.md section 15 documents them verbatim. A
# production changed in one place but not the other is how docs rot -- fail
# fast here instead.
echo "== grammar: update_parser.h productions vs DESIGN.md =="
drift=0
while IFS= read -r production; do
  [ -n "$production" ] || continue
  if ! grep -qF "$production" DESIGN.md; then
    echo "error: update grammar production '$production' (src/xquery/update_parser.h) is not in DESIGN.md" >&2
    drift=1
  fi
done < <(sed -n 's@^//   \(.*::=.*\)@\1@p; s@^//   \( *| .*\)@\1@p' \
           src/xquery/update_parser.h)
[ "$drift" -eq 0 ] || exit 1
echo "update grammar productions match DESIGN.md"

echo
echo "== tier-1: build + full test suite (build/) =="
cmake -B build -S . >/dev/null
cmake --build build "${JOBS}"
# --no-tests=error: a misconfigured build that discovers zero tests must
# fail the gate loudly, not "pass" it vacuously.
ctest --test-dir build --output-on-failure --no-tests=error "${JOBS}"

echo
echo "== concurrency: ThreadSanitizer build + -L concurrency (build-tsan/) =="
cmake -B build-tsan -S . -DLLL_SANITIZE=thread >/dev/null
cmake --build build-tsan "${JOBS}"
ctest --test-dir build-tsan -L concurrency --output-on-failure --no-tests=error

echo
echo "All checks passed."
