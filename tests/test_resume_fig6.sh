#!/bin/sh
# Kill-and-resume acceptance test for the sweep journal.
#
# Runs the Fig. 6 ladder three ways with a reduced budget:
#   1. uninterrupted (the reference),
#   2. with an injected hard kill (std::_Exit) at the 10th point,
#   3. resumed from the journal the killed run left behind,
# then requires the resumed CSVs and per-point JSON dumps to be
# byte-identical to the reference -- the journal carried complete,
# bit-exact results through the kill.
#
# Usage: test_resume_fig6.sh <path-to-fig6_l2_orgs>
set -u

FIG6="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Small deterministic budget; one worker so the injected fault hit
# count is deterministic across the process.
export GAAS_BENCH_INSTRUCTIONS=10000
export GAAS_BENCH_MP=2
export GAAS_BENCH_JOBS=1
unset GAAS_FAULT GAAS_BENCH_WATCHDOG 2>/dev/null || true

# 1. The uninterrupted reference run.
GAAS_BENCH_CSV_DIR="$WORK/ref_csv" \
    "$FIG6" --stats-json "$WORK/ref_json" \
    > "$WORK/ref.out" 2>"$WORK/ref.err" \
    || fail "reference run exited nonzero"

# 2. The killed run: bench-kill fires on the 10th completed point,
#    exiting 9 with no flushes -- only fsynced journal records and
#    atomically published files may survive.
GAAS_BENCH_CSV_DIR="$WORK/res_csv" GAAS_FAULT=bench-kill:10 \
    "$FIG6" --stats-json "$WORK/res_json" --resume "$WORK/journal" \
    > "$WORK/killed.out" 2>"$WORK/killed.err"
status=$?
[ "$status" -eq 9 ] || fail "expected kill exit 9, got $status"
[ -f "$WORK/journal/sweep_journal.jsonl" ] \
    || fail "killed run left no journal"

# 3. The resumed run: must report exactly the 9 points journaled
#    before the kill and finish the rest.
GAAS_BENCH_CSV_DIR="$WORK/res_csv" \
    "$FIG6" --stats-json "$WORK/res_json" --resume "$WORK/journal" \
    > "$WORK/resumed.out" 2>"$WORK/resumed.err" \
    || fail "resumed run exited nonzero"
grep -q "resume: 9 journaled" "$WORK/resumed.out" \
    || fail "resumed run did not load 9 journaled points"
grep -q "9 reused" "$WORK/resumed.out" \
    || fail "resumed run did not reuse 9 points"

# Byte-identical products.
for csv in fig6_l2_cpi.csv table2_l2_miss_ratios.csv; do
    cmp -s "$WORK/ref_csv/$csv" "$WORK/res_csv/$csv" \
        || fail "$csv differs between reference and resumed run"
done
# sweep-*.json holds host timings and arena hit counts, which
# legitimately differ between the reference and the resumed run.
diff -r -x 'sweep-*.json' "$WORK/ref_json" "$WORK/res_json" \
    >/dev/null \
    || fail "per-point JSON dumps differ"

echo "ok: kill-and-resume is byte-identical to the reference run"
exit 0
