#!/bin/sh
# Graceful-shutdown test for the figure binaries: SIGTERM mid-sweep
# must drain in-flight points, flush the journal, still emit the
# partial CSVs (cancelled cells spelled failed:cancelled) and exit
# with the distinct drain code 3 -- and a --resume rerun must then
# finish the ladder byte-identically to an uninterrupted run.
#
# The signal races the sweep: if the ladder finishes before SIGTERM
# lands, the interrupted phase degenerates to a clean run (exit 0)
# and the test only checks final byte-identity.
#
# Usage: test_sigterm_fig6.sh <path-to-fig6_l2_orgs>
set -u

FIG6="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

export GAAS_BENCH_INSTRUCTIONS=25000
export GAAS_BENCH_MP=2
export GAAS_BENCH_JOBS=1
unset GAAS_FAULT GAAS_BENCH_WATCHDOG 2>/dev/null || true

CSVS="fig6_l2_cpi.csv table2_l2_miss_ratios.csv"

# The uninterrupted in-process reference.
GAAS_BENCH_CSV_DIR="$WORK/ref_csv" "$FIG6" \
    > "$WORK/ref.out" 2>"$WORK/ref.err" \
    || fail "reference run exited nonzero"

# Interrupted run: wait for the first finished point, then SIGTERM.
GAAS_BENCH_CSV_DIR="$WORK/cut_csv" \
    "$FIG6" --mproc 2 --progress --resume "$WORK/journal" \
    > "$WORK/cut.out" 2>"$WORK/cut.err" &
PID=$!
tries=0
while [ $tries -lt 200 ]; do
    grep -q '\[point ' "$WORK/cut.err" 2>/dev/null && break
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.05
    tries=$((tries + 1))
done
kill -TERM "$PID" 2>/dev/null || true
wait "$PID"
status=$?

if [ "$status" -eq 3 ]; then
    # Drained mid-sweep: the partial CSVs must exist, and unless
    # every point had already finished simulating, carry cancelled
    # cells.
    for csv in $CSVS; do
        [ -f "$WORK/cut_csv/$csv" ] \
            || fail "interrupted run left no $csv"
    done
    grep -q 'cancelled' "$WORK/cut.out" \
        || grep -q 'failed:cancelled' "$WORK/cut_csv/fig6_l2_cpi.csv" \
        || fail "drain exit 3 but no cancelled points anywhere"
elif [ "$status" -eq 0 ]; then
    echo "note: sweep finished before SIGTERM landed;" \
         "only checking byte-identity" >&2
else
    fail "interrupted run exited $status (want 3, or 0 on race)"
fi

# Resume and finish the ladder; products must match the reference.
GAAS_BENCH_CSV_DIR="$WORK/cut_csv" \
    "$FIG6" --mproc 2 --resume "$WORK/journal" \
    > "$WORK/res.out" 2>"$WORK/res.err" \
    || fail "resumed run exited nonzero"
for csv in $CSVS; do
    cmp -s "$WORK/ref_csv/$csv" "$WORK/cut_csv/$csv" \
        || fail "$csv differs after SIGTERM drain + resume"
done

echo "ok: SIGTERM drains, exits 3 and the resumed ladder is" \
     "byte-identical"
exit 0
