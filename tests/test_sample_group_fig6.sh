#!/bin/sh
# Grouped sampled sweeps give every point the answer a solo run
# gives, driven through the real Fig. 6 binary.
#
# Runs `fig6_l2_orgs --sample` three ways at a budget where every
# point samples:
#   1. a thread pool of 4 workers, set so the helpers run on any
#      host: one unit of all 28 points, whose members replay on 3
#      helper tasks while its front end records;
#   2. GAAS_BENCH_JOBS=1, the same unit replayed on one thread;
#   3. --mproc 2, where forked workers run every point solo;
# and requires byte-identical CSVs and per-point JSON dumps.
#
# Usage: test_sample_group_fig6.sh <path-to-fig6_l2_orgs>
set -u

FIG6="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# 2M instructions per point (fig6 scales the budget by 4): enough
# for the 24-episode schedule, so no point takes the full-detail
# fallback.
export GAAS_BENCH_INSTRUCTIONS=500000
export GAAS_BENCH_MP=2
unset GAAS_FAULT GAAS_BENCH_WATCHDOG GAAS_BENCH_JOBS 2>/dev/null || true

run() {
    name="$1"
    shift
    GAAS_BENCH_CSV_DIR="$WORK/${name}_csv" \
        "$@" --sample --stats-json "$WORK/${name}_json" \
        > "$WORK/$name.out" 2>"$WORK/$name.err" \
        || fail "$name run exited nonzero"
}

GAAS_BENCH_JOBS=4 run pool "$FIG6"
GAAS_BENCH_JOBS=1 run serial "$FIG6"
run mproc "$FIG6" --mproc 2
grep -q "worker process(es)" "$WORK/mproc.out" \
    || fail "mproc run did not use the process executor"

# Every point sampled: 28 dumps, none a full-detail fallback.
dumps=$(ls "$WORK"/pool_json/[0-9]*.json | wc -l)
[ "$dumps" -eq 28 ] || fail "expected 28 point dumps, got $dumps"
sampled=$(grep -l '"intervals": [1-9]' "$WORK"/pool_json/[0-9]*.json \
    | wc -l)
[ "$sampled" -eq 28 ] || fail "only $sampled of 28 points sampled"

for other in serial mproc; do
    for csv in fig6_l2_cpi.csv table2_l2_miss_ratios.csv; do
        cmp -s "$WORK/pool_csv/$csv" "$WORK/${other}_csv/$csv" \
            || fail "$csv differs between the pool and the $other run"
    done
    # sweep-*.json holds host timings and arena hit counts, which
    # legitimately differ between executors.
    diff -r -x 'sweep-*.json' "$WORK/pool_json" "$WORK/${other}_json" \
        >/dev/null \
        || fail "per-point JSON dumps differ: pool vs $other run"
done

echo "ok: grouped, single-unit and solo sampled sweeps are byte-identical"
exit 0
