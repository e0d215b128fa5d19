#!/bin/sh
# Crash-contract acceptance test for the multi-process sweep
# executor, driven through the real Fig. 6 binary.
#
# Against one uninterrupted single-threaded reference run, requires:
#   1. a multi-process run with two injected worker SIGKILLs
#      (GAAS_FAULT=worker-kill:2,worker-kill:9) completes with exit
#      0 and byte-identical CSVs and per-point JSON dumps -- the
#      requeued points are indistinguishable from never-killed ones;
#   2. an *external* `kill -9` of a live worker process mid-sweep
#      changes nothing either;
#   3. a supervisor hard-kill (bench-kill) mid-sweep under --mproc
#      is recovered by --resume, byte-identical again -- worker
#      results crossed the pipe into the same fsynced journal.
#
# Usage: test_mproc_fig6.sh <path-to-fig6_l2_orgs>
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
unset GAAS_FAULT GAAS_BENCH_WATCHDOG 2>/dev/null || true

CSVS="fig6_l2_cpi.csv table2_l2_miss_ratios.csv"

# The uninterrupted in-process reference.
GAAS_BENCH_CSV_DIR="$WORK/ref_csv" \
    "$FIG6" --stats-json "$WORK/ref_json" \
    > "$WORK/ref.out" 2>"$WORK/ref.err" \
    || fail "reference run exited nonzero"

# 1. Two injected worker kills: the 2nd and 9th job dispatches land
#    on workers that SIGKILL themselves mid-job.
GAAS_BENCH_CSV_DIR="$WORK/kill_csv" \
    GAAS_FAULT=worker-kill:2,worker-kill:9 \
    "$FIG6" --mproc 2 --stats-json "$WORK/kill_json" \
    > "$WORK/kill.out" 2>"$WORK/kill.err" \
    || fail "worker-kill run exited nonzero"
grep -q "worker process(es)" "$WORK/kill.out" \
    || fail "worker-kill run did not use the process executor"
grep -q "2 requeue(s)" "$WORK/kill.out" \
    || fail "worker-kill run did not report 2 requeues"
for csv in $CSVS; do
    cmp -s "$WORK/ref_csv/$csv" "$WORK/kill_csv/$csv" \
        || fail "$csv differs after injected worker kills"
done
diff -r -x 'sweep-*.json' "$WORK/ref_json" "$WORK/kill_json" \
    >/dev/null \
    || fail "per-point JSON dumps differ after injected worker kills"

# 2. An external kill -9 of a real worker process mid-sweep.  The
#    kill races the sweep; if the ladder finished before we found a
#    worker, the run still proves the no-fault path.
GAAS_BENCH_CSV_DIR="$WORK/ext_csv" \
    "$FIG6" --mproc 2 --stats-json "$WORK/ext_json" \
    > "$WORK/ext.out" 2>"$WORK/ext.err" &
PID=$!
WORKER=""
tries=0
while [ $tries -lt 50 ] && [ -z "$WORKER" ]; do
    WORKER=$(pgrep -P "$PID" 2>/dev/null | head -n 1) || WORKER=""
    [ -n "$WORKER" ] || sleep 0.1
    tries=$((tries + 1))
done
if [ -n "$WORKER" ]; then
    kill -9 "$WORKER" 2>/dev/null || true
fi
wait "$PID"
status=$?
[ "$status" -eq 0 ] || fail "external-kill run exited $status"
for csv in $CSVS; do
    cmp -s "$WORK/ref_csv/$csv" "$WORK/ext_csv/$csv" \
        || fail "$csv differs after external worker kill"
done
diff -r -x 'sweep-*.json' "$WORK/ref_json" "$WORK/ext_json" \
    >/dev/null \
    || fail "per-point JSON dumps differ after external worker kill"

# 3. Supervisor hard-kill at the 10th finalized point, resumed.
GAAS_BENCH_CSV_DIR="$WORK/sup_csv" GAAS_FAULT=bench-kill:10 \
    "$FIG6" --mproc 2 --stats-json "$WORK/sup_json" \
    --resume "$WORK/journal" \
    > "$WORK/sup_killed.out" 2>"$WORK/sup_killed.err"
status=$?
[ "$status" -eq 9 ] || fail "expected supervisor kill exit 9, got $status"
[ -f "$WORK/journal/sweep_journal.jsonl" ] \
    || fail "killed supervisor left no journal"
GAAS_BENCH_CSV_DIR="$WORK/sup_csv" \
    "$FIG6" --mproc 2 --stats-json "$WORK/sup_json" \
    --resume "$WORK/journal" \
    > "$WORK/sup_resumed.out" 2>"$WORK/sup_resumed.err" \
    || fail "resumed supervisor run exited nonzero"
grep -q "resume: 9 journaled" "$WORK/sup_resumed.out" \
    || fail "resumed run did not load 9 journaled points"
for csv in $CSVS; do
    cmp -s "$WORK/ref_csv/$csv" "$WORK/sup_csv/$csv" \
        || fail "$csv differs after supervisor kill + resume"
done
diff -r -x 'sweep-*.json' "$WORK/ref_json" "$WORK/sup_json" \
    >/dev/null \
    || fail "per-point JSON dumps differ after supervisor kill + resume"

echo "ok: worker kills, external kills and a supervisor crash all" \
     "leave the fig6 products byte-identical"
exit 0
