#!/bin/sh
# Injected-failure acceptance test for per-job fault isolation.
#
# Arms GAAS_FAULT=sweep-job:5 so the 5th Fig. 6 point throws inside
# the sweep, then requires: every other point completes, the failure
# is reported once with its stable error code, the CSVs carry an
# explicit failed:<code> cell in both tables, the stats-json dir has
# a failure record alongside the 27 good dumps, and the binary exits
# nonzero only after the whole ladder drained.  Then points the CSV
# directory below a regular file: the figure must print
# `[csv FAILED: ...]` and exit 1.  Last, the two knobs whose zero
# means something: GAAS_BENCH_WARMUP=0 (no warmup) must be accepted
# without a warning and change the CSV, and GAAS_BENCH_WATCHDOG=1
# must fail every point as failed:watchdog.  Finally, each malformed
# knob warns exactly once, though all 28 points read it, and an MP
# level too wide for an unsigned falls back to MP 8.
#
# Usage: test_inject_fig6.sh <path-to-fig6_l2_orgs>
set -u

FIG6="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

export GAAS_BENCH_INSTRUCTIONS=10000
export GAAS_BENCH_MP=2
export GAAS_BENCH_JOBS=1
unset GAAS_FAULT GAAS_BENCH_WATCHDOG GAAS_BENCH_WARMUP 2>/dev/null || true

GAAS_BENCH_CSV_DIR="$WORK/csv" GAAS_FAULT=sweep-job:5 \
    "$FIG6" --stats-json "$WORK/json" \
    > "$WORK/run.out" 2>"$WORK/run.err"
status=$?
[ "$status" -eq 1 ] || fail "expected exit 1, got $status"

# The failure is reported once, with its code and config name.
grep -q "failed \[internal\]" "$WORK/run.err" \
    || fail "stderr does not report the failed point with its code"
grep -q "injected fault: sweep-job" "$WORK/run.err" \
    || fail "stderr does not carry the failure message"

# The sweep drained: 28 points, 27 ok, 1 failed.
grep -q "27 ok, 1 failed" "$WORK/run.out" \
    || fail "sweep summary does not show 27 ok / 1 failed"

for csv in fig6_l2_cpi.csv table2_l2_miss_ratios.csv; do
    [ -f "$WORK/csv/$csv" ] || fail "$csv was not written"
    # Header + 7 size rows: the ladder finished despite the failure.
    lines=$(wc -l < "$WORK/csv/$csv")
    [ "$lines" -eq 8 ] || fail "$csv has $lines lines, expected 8"
    n=$(grep -c "failed:internal" "$WORK/csv/$csv")
    [ "$n" -eq 1 ] || fail "$csv has $n failed cells, expected 1"
done

# The stats-json dir reports the failure too: 27 regular dumps plus
# exactly one failure record carrying the stable code (and the
# sweep-level telemetry dump, which is neither).
ok_dumps=$(ls "$WORK/json"/*.json \
    | grep -v '\.failed\.json$' | grep -cv '/sweep-')
[ "$ok_dumps" -eq 27 ] || fail "expected 27 stats dumps, got $ok_dumps"
failed_dumps=$(ls "$WORK/json"/*.failed.json | wc -l)
[ "$failed_dumps" -eq 1 ] \
    || fail "expected 1 failure record, got $failed_dumps"
grep -q '"code": "internal"' "$WORK/json"/*.failed.json \
    || fail "failure record does not carry the internal code"
grep -q '"status": "failed"' "$WORK/json"/*.failed.json \
    || fail "failure record does not carry the failed status"

# A CSV that cannot be written fails the run, though every point ran.
: > "$WORK/not-a-dir"
GAAS_BENCH_CSV_DIR="$WORK/not-a-dir/sub" "$FIG6" \
    > "$WORK/csv.out" 2>"$WORK/csv.err"
status=$?
[ "$status" -eq 1 ] \
    || fail "unwritable CSV dir: expected exit 1, got $status"
grep -q '\[csv FAILED' "$WORK/csv.out" \
    || fail "unwritable CSV dir: stdout has no [csv FAILED line"

# GAAS_BENCH_WARMUP=0 means no warmup: no warning, other answers.
GAAS_BENCH_CSV_DIR="$WORK/default" "$FIG6" \
    > "$WORK/default.out" 2>"$WORK/default.err" \
    || fail "default run exited nonzero"
GAAS_BENCH_WARMUP=0 GAAS_BENCH_CSV_DIR="$WORK/nowarm" "$FIG6" \
    > "$WORK/nowarm.out" 2>"$WORK/nowarm.err" \
    || fail "GAAS_BENCH_WARMUP=0 run exited nonzero"
if grep -q GAAS_BENCH_WARMUP "$WORK/nowarm.err"; then
    fail "GAAS_BENCH_WARMUP=0 warns: $(head -n 1 "$WORK/nowarm.err")"
fi
if cmp -s "$WORK/default/fig6_l2_cpi.csv" \
        "$WORK/nowarm/fig6_l2_cpi.csv"; then
    fail "GAAS_BENCH_WARMUP=0 gives the default warmup's CSV"
fi

# One cycle per instruction trips the watchdog on every point's
# first miss: the ladder drains as failed:watchdog and exits 1.
GAAS_BENCH_WATCHDOG=1 GAAS_BENCH_CSV_DIR="$WORK/watchdog" "$FIG6" \
    > "$WORK/watchdog.out" 2>"$WORK/watchdog.err"
status=$?
[ "$status" -eq 1 ] \
    || fail "GAAS_BENCH_WATCHDOG=1: expected exit 1, got $status"
grep -q "0 ok, 28 failed" "$WORK/watchdog.out" \
    || fail "GAAS_BENCH_WATCHDOG=1: sweep summary is not 0 ok / 28 failed"
n=$(grep -o "failed:watchdog" "$WORK/watchdog/fig6_l2_cpi.csv" | wc -l)
[ "$n" -eq 28 ] \
    || fail "GAAS_BENCH_WATCHDOG=1: $n failed:watchdog cells, expected 28"

# A malformed knob falls back to its default with one warning, not
# one per point that reads it.
GAAS_BENCH_MP=x GAAS_BENCH_WARMUP=x GAAS_BENCH_WATCHDOG=abc \
    GAAS_BENCH_JOBS=4x GAAS_BENCH_CSV_DIR="$WORK/badknobs" "$FIG6" \
    > "$WORK/badknobs.out" 2>"$WORK/badknobs.err" \
    || fail "malformed knobs: run exited nonzero"
for knob in GAAS_BENCH_MP GAAS_BENCH_WARMUP GAAS_BENCH_WATCHDOG \
        GAAS_BENCH_JOBS; do
    n=$(grep -c "$knob=" "$WORK/badknobs.err")
    [ "$n" -eq 1 ] || fail "$knob: $n warnings, expected 1"
done

# An MP level past unsigned's range is malformed too: it warns once
# and runs at the default MP 8 instead of wrapping (2^32 + 2 read
# as MP 2).
GAAS_BENCH_MP=4294967298 GAAS_BENCH_CSV_DIR="$WORK/widemp" "$FIG6" \
    > "$WORK/widemp.out" 2>"$WORK/widemp.err" \
    || fail "GAAS_BENCH_MP=4294967298: run exited nonzero"
n=$(grep -c "GAAS_BENCH_MP=4294967298" "$WORK/widemp.err")
[ "$n" -eq 1 ] || fail "GAAS_BENCH_MP=4294967298: $n warnings, expected 1"
grep -q "MP level 8," "$WORK/widemp.out" \
    || fail "GAAS_BENCH_MP=4294967298: banner is not MP level 8:" \
        "$(grep 'MP level' "$WORK/widemp.out")"

echo "ok: injected failure isolated, reported, and exit code is 1;" \
    "zero warmup and a one-cycle watchdog honoured;" \
    "each malformed knob warned once; a wide MP level was not wrapped"
exit 0
