# Trace-format and flag-parsing test for the gaassim and cachesim
# front ends.
#
# Usage: test_cli_traces.sh <tracepack> <gaassim> <cachesim>
#
# Synthesizes a small v3 trace with tracepack and makes a v2 copy of
# it with `tracepack unpack`.  On both files, `gaassim --trace` and
# `cachesim` must exit 0 and report nonzero instruction and access
# counts.  Malformed or zero numeric flags, and an unknown
# cachesim --kind, must exit nonzero before any simulation.

set -u

TRACEPACK=$1
GAASSIM=$2
CACHESIM=$3
dir=$(mktemp -d "${TMPDIR:-/tmp}/gaas_cli.XXXXXX")
trap 'rm -rf "$dir"' EXIT INT TERM

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

"$TRACEPACK" synth "$dir/t.v3" --instructions 20000 >/dev/null \
    || fail "tracepack synth"
"$TRACEPACK" unpack "$dir/t.v3" "$dir/t.v2" >/dev/null \
    || fail "tracepack unpack"

for trace in "$dir/t.v3" "$dir/t.v2"; do
    out=$("$GAASSIM" --trace "$trace" --instructions 30000) \
        || fail "gaassim --trace $trace exited nonzero"
    instr=$(echo "$out" |
        sed -n 's/^sim\.instructions  *\([0-9]*\) .*/\1/p')
    [ -n "$instr" ] && [ "$instr" -gt 0 ] \
        || fail "gaassim --trace $trace reported no instructions"

    out=$("$CACHESIM" "$trace") \
        || fail "cachesim $trace exited nonzero"
    accesses=$(echo "$out" | sed -n 's/^accesses: \([0-9]*\)$/\1/p')
    [ -n "$accesses" ] && [ "$accesses" -gt 0 ] \
        || fail "cachesim $trace reported no accesses"
done

# --warmup 0 stays legal.
"$GAASSIM" --trace "$dir/t.v3" --instructions 1000 --warmup 0 \
    >/dev/null || fail "gaassim --warmup 0 exited nonzero"

for args in "--instructions abc" "--instructions 0" "--mp 4x" \
            "--mp 0" "--slice 0" "--slice 10k" "--warmup -1"; do
    # shellcheck disable=SC2086
    if "$GAASSIM" $args >/dev/null 2>"$dir/err"; then
        fail "gaassim $args exited 0"
    fi
    flag=${args%% *}
    grep -q -- "$flag" "$dir/err" \
        || fail "gaassim $args did not name $flag"
done

for args in "--size 4x" "--size 0" "--assoc 0" "--assoc two" \
            "--line x" "--kind bogus"; do
    # shellcheck disable=SC2086
    if "$CACHESIM" "$dir/t.v3" $args >/dev/null 2>"$dir/err"; then
        fail "cachesim $args exited 0"
    fi
    flag=${args%% *}
    grep -q -- "$flag" "$dir/err" \
        || fail "cachesim $args did not name $flag"
done

echo "ok: gaassim and cachesim read v2 and v3 and reject bad flags"
