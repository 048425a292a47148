#!/usr/bin/env bash
# Persistence roundtrip gate: prove that a server rebuilt purely from disk
# artifacts is indistinguishable from the one that wrote them.
#
#   1. daemon A: register a document, answer a query burst, `save <dir>`
#   2. daemon B: a FRESH process, warm-boots with `load <dir>` (no XML, no
#      compiles), answers the same burst
#   3. the answers must be byte-identical, and daemon B's EXPLAIN must say
#      the plan came from the disk cache
#   4. rerun the in-process differential suites (persist_test includes the
#      495-query disk-vs-fresh oracle) against the same build
#
# Usage: scripts/persist_roundtrip.sh [build-dir]   (default ./build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SERVERD="${BUILD}/src/server/lll_serverd"
if [[ ! -x "${SERVERD}" ]]; then
  echo "persist_roundtrip: ${SERVERD} not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
STATE="${WORK}/state"

cat > "${WORK}/lib.xml" <<'XML'
<lib><shelf id="0"><book>ada</book><book>basic</book></shelf><shelf id="1"><book>c</book><book>d</book></shelf></lib>
XML

QUERIES=(
  'query t lib count(//book)'
  'query t lib string-join(//shelf/@id, ",")'
  'query t lib //shelf[@id="1"]/book[1]/text()'
  'query t lib for $s in //shelf order by $s/@id descending return count($s/book)'
)

burst() {
  for q in "${QUERIES[@]}"; do echo "${q}"; done
  echo 'explain lib count(//book)'
}

echo "== daemon A: parse XML, compile, answer, save state =="
{
  echo "load lib ${WORK}/lib.xml"
  burst
  # Save AFTER the burst so plans.lllp holds every compiled plan.
  echo "save ${STATE}"
  echo 'quit'
} | "${SERVERD}" > "${WORK}/cold.out"

test -s "${STATE}/plans.lllp"
ls "${STATE}"/doc-*.llld >/dev/null

echo "== daemon B: fresh process, warm boot from ${STATE} =="
{
  echo "load ${STATE}"
  burst
  echo 'quit'
} | "${SERVERD}" > "${WORK}/warm.out"

if grep -E '^(error|rejected):' "${WORK}/cold.out" "${WORK}/warm.out"; then
  echo "persist_roundtrip: a daemon reported an error" >&2
  exit 1
fi

# Compare payloads only: the snapshot-latency banner carries a per-run
# microsecond figure, and the EXPLAIN provenance line differs BY DESIGN
# (daemon A compiled its plans, daemon B loaded them) -- it is asserted
# separately below.
# The "." terminators go too: daemon A answers one more setup command
# (the save) than daemon B, so the terminator counts differ.
strip_varying() {
  grep -v -E '^(ok|\.|snapshot [0-9]+ \([0-9]+us\))$' "$1" |
    grep -v 'server plan: '
}
if ! diff <(strip_varying "${WORK}/cold.out") \
          <(strip_varying "${WORK}/warm.out"); then
  echo "persist_roundtrip: warm answers diverge from cold" >&2
  exit 1
fi

grep -q 'server plan: disk-cache' "${WORK}/warm.out" || {
  echo "persist_roundtrip: warm EXPLAIN did not report disk-cache" >&2
  exit 1
}
# Daemon A answered the burst before explaining, so its plan is a memory
# hit on a locally compiled entry -- never disk.
grep -q -E 'server plan: (compiled|memory-cache)' "${WORK}/cold.out" || {
  echo "persist_roundtrip: cold EXPLAIN did not report a local compile" >&2
  exit 1
}

echo "== differential suites (persist_test: 495-query disk-vs-fresh oracle) =="
ctest --test-dir "${BUILD}" -R 'persist_test|server_differential_test' \
  --output-on-failure --no-tests=error

echo "persist roundtrip: OK"
