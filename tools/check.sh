#!/bin/sh
# Repository gate: build everything, run the netdiv-lint static checker
# (surface + interprocedural effect analysis; every finding not
# suppressed inline with a written reason fails),
# run the full test suite (alcotest, qcheck and the CLI cram test),
# run the scored-deployment benchmark's smoke test (perfbench/),
# re-run the pool suite with the NETDIV_SANITIZE race sanitizer enabled,
# run the fast benchmark smoke (parallel determinism, interning and
# observability-overhead sections, writes BENCH.json), diff the fresh
# report against the committed baseline with tools/bench_diff (>25%
# regression on watched metrics fails, snapshots land in
# bench_history/), validate that a traced optimize
# run emits a Chrome trace and a JSONL log that netdiv report accepts,
# and that the --metrics report of the JSONL run equals netdiv report of
# its trace apart from the format line, run the chaos gate (a fixed NETDIV_FAULT schedule must recover to the
# fault-free assignment and replay bitwise, and a skewed clock must not
# change an unbudgeted solve), run the flight-recorder gate (a degraded
# run must dump a black box that netdiv report renders, a zoned solve
# must attribute its dual gap per zone, and the report of its dump and
# of its --trace JSONL must show the same zone and boundary rows), and —
# when a .ocamlformat file is present — verify formatting. Exits
# non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== netdiv lint (effect analysis gate)"
# the @lint alias runs
#   netdiv lint --format json lib bin
# with test/bench/examples/tools/perfbench as reference roots; any
# finding that is not suppressed inline with a written reason fails the
# gate
dune build @lint

echo "== dune runtest"
dune runtest

echo "== scored-deployment benchmark smoke (perfbench)"
# every benchmark workload, in miniature, through the scored-deployment
# correctness gate: energy recomputed from the labeling, bound <= energy,
# finite d_bn and MTTC (about 8 s)
dune build @perfbench/smoke

echo "== pool + mrf tests under NETDIV_SANITIZE=1"
# dune does not track env vars, so run the test binaries directly: the
# sanitizer must stay silent on the whole (race-free) pool suite and on
# the MRF suite, which exercises the zoned TRW-S schedule across job
# counts.
NETDIV_SANITIZE=1 dune exec test/test_par.exe -- --compact
NETDIV_SANITIZE=1 dune exec test/test_mrf.exe -- --compact

echo "== bench smoke (parallel determinism + interning + overhead)"
# keep the committed report as the regression baseline before the run
# overwrites it
baseline=""
if git show HEAD:BENCH.json >/dev/null 2>&1; then
  baseline=$(mktemp)
  git show HEAD:BENCH.json >"$baseline"
fi
NETDIV_BENCH_SMOKE=1 NETDIV_BENCH_RUNS=20 dune exec bench/main.exe

# timestamped local history for bisecting perf changes (untracked);
# write-then-rename so an interrupted gate never leaves a torn snapshot
mkdir -p bench_history
snap="bench_history/BENCH_$(date -u +%Y%m%dT%H%M%SZ).json"
cp BENCH.json "$snap.tmp" && mv "$snap.tmp" "$snap"

# static trend page over the accumulated snapshots (inline SVG, no
# dependencies) — open bench_history/index.html to eyeball regressions
echo "== bench trend page"
dune exec tools/bench_page.exe

if [ -n "$baseline" ]; then
  echo "== bench regression gate (vs HEAD BENCH.json, 25% tolerance)"
  dune exec tools/bench_diff.exe -- "$baseline" BENCH.json
  rm -f "$baseline"
fi

echo "== traced optimize (Chrome trace + JSONL must round-trip)"
# the emitted traces must parse with the in-repo JSON reader and carry
# the spans the observability layer promises: solver sweeps on the
# default (TRW-S) path, pool parallel regions on the multi-job SA path.
# --metrics prints the report of the run's own events, so on the SA run
# it must equal netdiv report of the trace once the format line
# (live vs jsonl) is dropped.
tracedir=$(mktemp -d)
dune exec bin/netdiv.exe -- optimize --hosts 40 --degree 4 --services 3 \
  --trace "$tracedir/trace.json" >/dev/null
summary=$(dune exec bin/netdiv.exe -- report "$tracedir/trace.json")
echo "$summary" | grep -q '^format  chrome' || {
  echo "traced optimize did not produce a valid Chrome trace"; exit 1; }
echo "$summary" | grep -q 'trws\.sweep' || {
  echo "Chrome trace is missing trws.sweep spans"; exit 1; }
dune exec bin/netdiv.exe -- optimize --hosts 40 --degree 4 --services 3 \
  --solver sa --jobs 2 --trace "$tracedir/trace.jsonl" --metrics \
  >"$tracedir/metrics.out"
summary=$(dune exec bin/netdiv.exe -- report "$tracedir/trace.jsonl")
echo "$summary" | grep -q '^format  jsonl' || {
  echo "traced optimize did not produce a valid JSONL trace"; exit 1; }
echo "$summary" | grep -q 'pool\.region' || {
  echo "JSONL trace is missing pool.region spans"; exit 1; }
grep -q '^format  live$' "$tracedir/metrics.out" || {
  echo "--metrics did not print a report"; exit 1; }
sed -n '/^format  live$/,$p' "$tracedir/metrics.out" | grep -v '^format ' \
  >"$tracedir/live.report"
echo "$summary" | grep -v '^format ' >"$tracedir/file.report"
diff "$tracedir/live.report" "$tracedir/file.report" || {
  echo "--metrics report differs from netdiv report of the trace"; exit 1; }
rm -rf "$tracedir"

echo "== chaos gate (fault injection, recovery, replay determinism)"
# A fixed NETDIV_FAULT schedule crashes every dispatched pool chunk,
# kills the first runner stage attempt and tears the first checkpoint
# write.  The solve must still complete with the fault-free assignment
# (pool recovery + stage retry), report its retry count and fired
# schedule, and replaying the recorded schedule must reproduce the run
# bitwise (modulo wall-clock, which sed strips).
chaosdir=$(mktemp -d)
chaos_run() {
  rm -f "$chaosdir/ck.json" "$chaosdir/ck.json.tmp"
  NETDIV_FAULT="$1" dune exec bin/netdiv.exe -- optimize --hosts 1000 \
    --degree 10 --services 5 --solver sa --jobs 4 \
    --checkpoint "$chaosdir/ck.json" | sed 's/, [0-9.]*s$//'
}
chaos_run "" >"$chaosdir/clean.out"
chaos_run "rate=1.0,only=pool.chunk,runner.stage@0,io.write.truncate@0" \
  >"$chaosdir/chaos.out"
grep -q '^retries' "$chaosdir/chaos.out" || {
  echo "chaos run did not record a stage retry"; exit 1; }
schedule=$(sed -n 's/^faults  *//p' "$chaosdir/chaos.out")
[ -n "$schedule" ] || {
  echo "chaos run did not report its fault schedule"; exit 1; }
case "$schedule" in
  *pool.chunk@*) ;;
  *) echo "chaos run did not crash a pool chunk"; exit 1;;
esac
grep '^optimal' "$chaosdir/clean.out" >"$chaosdir/clean.energy"
grep '^optimal' "$chaosdir/chaos.out" >"$chaosdir/chaos.energy"
cmp -s "$chaosdir/clean.energy" "$chaosdir/chaos.energy" || {
  echo "chaos run diverged from the fault-free solve"; exit 1; }
chaos_run "$schedule" >"$chaosdir/replay1.out"
chaos_run "$schedule" >"$chaosdir/replay2.out"
cmp "$chaosdir/replay1.out" "$chaosdir/replay2.out" || {
  echo "fault replay is not deterministic"; exit 1; }
# An unbudgeted solve takes the same runner path: a killed first stage
# attempt is retried and lands on the fault-free assignment.
plain_run() {
  NETDIV_FAULT="$1" dune exec bin/netdiv.exe -- optimize --hosts 200 \
    | sed 's/, [0-9.]*s$//'
}
plain_run "" >"$chaosdir/plain_clean.out"
plain_run "runner.stage@0" >"$chaosdir/plain_chaos.out"
grep -q '^retries 1$' "$chaosdir/plain_chaos.out" || {
  echo "unbudgeted chaos run did not retry its stage"; exit 1; }
grep '^optimal' "$chaosdir/plain_clean.out" >"$chaosdir/plain_clean.energy"
grep '^optimal' "$chaosdir/plain_chaos.out" >"$chaosdir/plain_chaos.energy"
cmp -s "$chaosdir/plain_clean.energy" "$chaosdir/plain_chaos.energy" || {
  echo "unbudgeted chaos run diverged from the fault-free solve"; exit 1; }
# Only a budget may make a result depend on the clock: with every clock
# read jumping 60 s, an unbudgeted solve lands on the same assignment.
plain_run "rate=1.0,only=clock." >"$chaosdir/plain_clock.out"
grep '^optimal' "$chaosdir/plain_clock.out" >"$chaosdir/plain_clock.energy"
cmp -s "$chaosdir/plain_clean.energy" "$chaosdir/plain_clock.energy" || {
  echo "unbudgeted run under a skewed clock diverged from the clean solve"
  exit 1; }
rm -rf "$chaosdir"

echo "== flight recorder gate (black box under degradation + report)"
# A chaos schedule that kills every attempt of the first stage forces
# the runner down its degradation ladder; the runner must dump the
# flight recorder as it degrades, and netdiv report must parse the dump
# and show the degradation mark.  A zoned scalability solve must yield
# per-zone gap attribution through the same pipeline, and its dump and
# its --trace JSONL carry one event stream: their reports must print
# identical zone-attribution and boundary-reconciliation sections.
flightdir=$(mktemp -d)
NETDIV_FAULT="runner.stage@0,runner.stage@1,runner.stage@2" \
  dune exec bin/netdiv.exe -- optimize --hosts 40 --degree 4 --services 3 \
  --time-budget 5 --flight-record "$flightdir/degraded.json" \
  >"$flightdir/degraded.out"
grep -q '^outcome degraded' "$flightdir/degraded.out" || {
  echo "fault schedule did not degrade the runner"; exit 1; }
report=$(dune exec bin/netdiv.exe -- report "$flightdir/degraded.json")
echo "$report" | grep -q '^reason   degraded' || {
  echo "flight record of a degraded run lacks the degradation reason"
  exit 1; }
echo "$report" | grep -q 'degrade:' || {
  echo "flight record is missing the degradation mark"; exit 1; }
dune exec bin/netdiv.exe -- scalability --hosts 2000 --zones 4 \
  --flight-record "$flightdir/zoned.json" \
  --trace "$flightdir/zoned.jsonl" >/dev/null
report=$(dune exec bin/netdiv.exe -- report "$flightdir/zoned.json")
echo "$report" | grep -q 'zone gap attribution' || {
  echo "zoned flight record lacks per-zone gap attribution"; exit 1; }
echo "$report" | grep -q 'boundary reconciliation' || {
  echo "zoned flight record lacks boundary reconciliation rounds"; exit 1; }
zone_sections() {
  dune exec bin/netdiv.exe -- report "$1" |
    awk '/^zone gap attribution/ { p = 1 } /^trajectory/ { p = 0 } p'
}
zone_sections "$flightdir/zoned.json" >"$flightdir/dump.rows"
zone_sections "$flightdir/zoned.jsonl" >"$flightdir/trace.rows"
diff "$flightdir/dump.rows" "$flightdir/trace.rows" || {
  echo "zoned dump and trace report different zone/boundary rows"; exit 1; }
rm -rf "$flightdir"

if [ -f .ocamlformat ]; then
  echo "== dune fmt (check)"
  dune build @fmt
fi

echo "OK"
