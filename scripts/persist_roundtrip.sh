#!/usr/bin/env bash
# Persistence roundtrip gate: prove that a server rebuilt purely from disk
# artifacts is indistinguishable from the one that wrote them.
#
#   1. daemon A: register a document, answer a query burst, `save <dir>`
#   2. daemon B: a FRESH process, warm-boots with `load <dir>` (documents
#      from their snapshots with no XML parse, the recorded queries compiled
#      during the load), answers the same burst
#   3. the answers must be byte-identical, and daemon B's EXPLAIN must say
#      the plan came from the disk cache, mark the memoizable function and
#      mark the probe-extended step interned
#   4. a daemon refuses `save` and `load` paths outside its --state-dir,
#      and answers a protocol line one byte over the 16 MiB cap with an
#      error while a line of exactly the cap is served
#   5. rerun the in-process differential suites (persist_test includes the
#      495-query disk-vs-fresh oracle) against the same build
#
# Both daemons run with --state-dir "${WORK}", so every file verb names a
# path relative to it.
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
daemon() { "${SERVERD}" --state-dir "${WORK}"; }

cat > "${WORK}/lib.xml" <<'XML'
<lib><shelf id="0"><book>ada</book><book>basic</book></shelf><shelf id="1"><book>c</book><book>d</book></shelf></lib>
XML
cat > "${WORK}/types.xml" <<'XML'
<types><type name="thing"/><type name="person" extends="thing"/><type name="user" extends="person"/><type name="admin" extends="user"/><type name="program" extends="thing"/></types>
XML

# A recursive subtype walk, the shape of the awbql backend's: daemon B must
# answer it from the loaded plan, and judge the function memoizable again.
SUBTYPE='declare function local:is-sub($m, $t, $super) { if ($t eq $super) then true() else let $d := $m//type[@name = $t] return if (empty($d/@extends)) then false() else local:is-sub($m, string($d/@extends), $super) }; let $m := /types return string-join(for $t in //type return concat($t/@name, "=", local:is-sub($m, string($t/@name), "person")), ",")'

# A probe key that is no literal: the probe extends the interned chain
# through the bare child::shelf step.
PROBED='/lib/shelf[@id = concat("1", "")]/book/text()'

QUERIES=(
  'query t lib count(//book)'
  'query t lib string-join(//shelf/@id, ",")'
  'query t lib //shelf[@id="1"]/book[1]/text()'
  "query t lib ${PROBED}"
  'query t lib for $s in //shelf order by $s/@id descending return count($s/book)'
  # A typed parameter, an arity overload and a re-bound let: daemon B binds
  # every name of the loaded plan again.
  'query t lib declare function local:twice($a as xs:integer) { $a * 2 }; declare function local:twice($a, $b) { $a + $b }; let $n := count(//book) let $n := local:twice($n) return local:twice($n, 1)'
  "query t types ${SUBTYPE}"
)

burst() {
  for q in "${QUERIES[@]}"; do echo "${q}"; done
  echo 'explain lib count(//book)'
  echo "explain lib ${PROBED}"
  echo "explain types ${SUBTYPE}"
}

echo "== daemon A: parse XML, compile, answer, save state =="
{
  echo "load lib lib.xml"
  echo "load types types.xml"
  burst
  # Save AFTER the burst so plans.lllp records every compiled query.
  echo "save state"
  echo 'quit'
} | daemon > "${WORK}/cold.out"

test -s "${STATE}/plans.lllp"
ls "${STATE}"/doc-*.llld >/dev/null

echo "== daemon B: fresh process, warm boot from ${STATE} =="
{
  echo "load state"
  burst
  echo 'quit'
} | daemon > "${WORK}/warm.out"

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

# The binding query answers 9 (4 books, twice, plus one) from the loaded plan.
grep -qx '9' "${WORK}/warm.out" || {
  echo "persist_roundtrip: the loaded binding query did not answer 9" >&2
  exit 1
}

grep -qx 'thing=false,person=true,user=true,admin=true,program=false' \
  "${WORK}/warm.out" || {
  echo "persist_roundtrip: the loaded subtype walk answered wrongly" >&2
  exit 1
}
# The memo mark is derived, never stored: daemon B derives it again.
grep -qxF '== function local:is-sub#3 == [memo]' "${WORK}/warm.out" || {
  echo "persist_roundtrip: warm EXPLAIN lost the [memo] mark" >&2
  exit 1
}

# The interning plan is derived, never stored: daemon B derives the probe
# extension again.
grep -qE '^  step child::shelf \[streamed\] \[interned(@v[0-9]+)?\]$' \
  "${WORK}/warm.out" || {
  echo "persist_roundtrip: warm EXPLAIN lost the probe-extended [interned]" >&2
  exit 1
}

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

echo "== file verbs outside --state-dir are refused =="
{
  echo "save ${WORK}/escaped"
  echo "load ../lib.xml"
  echo 'quit'
} | daemon > "${WORK}/refused.out"
if [[ "$(grep -c '^error: ' "${WORK}/refused.out")" != 2 ]]; then
  echo "persist_roundtrip: a daemon accepted a path outside --state-dir" >&2
  cat "${WORK}/refused.out" >&2
  exit 1
fi
if [[ -e "${WORK}/escaped" ]]; then
  echo "persist_roundtrip: a refused save wrote ${WORK}/escaped" >&2
  exit 1
fi

echo "== a protocol line over the 16 MiB cap is refused, and serving goes on =="
LINE_CAP=16777216
# A `refresh` command padded with spaces to exactly $1 bytes, then newline.
refresh_line() {
  printf 'refresh'
  head -c "$(( $1 - 7 ))" /dev/zero | tr '\0' ' '
  printf '\n'
}
{
  refresh_line "${LINE_CAP}"
  refresh_line "$(( LINE_CAP + 1 ))"
  echo 'refresh'
  echo 'quit'
} | daemon > "${WORK}/long.out"
if ! diff "${WORK}/long.out" - <<EOF
ok
.
error: line exceeds ${LINE_CAP} bytes
.
ok
.
EOF
then
  echo "persist_roundtrip: the protocol line cap misbehaved" >&2
  exit 1
fi

echo "== differential suites (persist_test: 495-query disk-vs-fresh oracle) =="
ctest --test-dir "${BUILD}" -R 'persist_test|server_differential_test' \
  --output-on-failure --no-tests=error

echo "persist roundtrip: OK"
