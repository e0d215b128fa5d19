# Runs every program under examples/ once at a small budget, in a
# scratch directory, and fails on the first nonzero exit.  trace_tools
# writes a v3 trace, reads its header back and replays it, so the v3
# writer and reader and MixSource run too.
#
# Usage: test_examples.sh <quickstart> <write_policy_study>
#            <multiprogramming_study> <design_space_explorer>
#            <trace_tools>

set -u

QUICKSTART=$1
WRITE_POLICY=$2
MULTIPROGRAMMING=$3
EXPLORER=$4
TRACE_TOOLS=$5
dir=$(mktemp -d "${TMPDIR:-/tmp}/gaas_examples.XXXXXX")
trap 'rm -rf "$dir"' EXIT INT TERM
cd "$dir" || exit 1

run() {
    "$@" >"$dir/out" 2>&1 || {
        cat "$dir/out" >&2
        echo "FAIL: $* exited nonzero" >&2
        exit 1
    }
}

run "$QUICKSTART" 20000
run "$WRITE_POLICY" 20000 3 6
run "$MULTIPROGRAMMING" 20000
run "$EXPLORER" --instructions 20000
run "$TRACE_TOOLS" gen gcc1 F 20000
run "$TRACE_TOOLS" info F
run "$TRACE_TOOLS" sim F 20000

echo "ok: the five examples ran"
