# Trace-format and argument-parsing test for the gaassim, cachesim
# and calibrate front ends.
#
# Usage: test_cli_traces.sh <tracepack> <gaassim> <cachesim> <calibrate>
#
# Synthesizes a small v3 trace with tracepack and makes a v2 copy of
# it with `tracepack unpack`.  On both files, `gaassim --trace` and
# `cachesim` must exit 0 and report nonzero instruction and access
# counts.  Malformed or zero numeric flags, an unknown cachesim
# --kind, and a bad calibrate budget or mode must exit nonzero,
# naming the bad value, before any simulation; a zero tracepack
# count or size must exit 2, naming the option.

set -u

TRACEPACK=$1
GAASSIM=$2
CACHESIM=$3
CALIBRATE=$4
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

# tracepack's counts and sizes are positive: 0 must exit 2 naming the
# option instead of silently meaning the default.  --bench is an
# index, so 0 stays valid.
for args in "synth $dir/z.v3 --instructions 0" \
            "synth $dir/z.v3 --seed 0" \
            "synth $dir/z.v3 --block-refs 0" \
            "drain $dir/t.v3 --stream-mb 0"; do
    # shellcheck disable=SC2086
    "$TRACEPACK" $args >/dev/null 2>"$dir/err"
    status=$?
    [ "$status" -eq 2 ] \
        || fail "tracepack $args exited $status, not 2"
    flag=$(echo "$args" | sed 's/.* \(--[a-z-]*\) 0$/\1/')
    grep -q -- "$flag" "$dir/err" \
        || fail "tracepack $args did not name $flag"
done
[ -e "$dir/z.v3" ] && fail "a rejected tracepack synth wrote $dir/z.v3"
"$TRACEPACK" synth "$dir/b0.v3" --bench 0 --instructions 1000 \
    >/dev/null || fail "tracepack synth --bench 0 exited nonzero"

# calibrate takes a budget and a mode as positional arguments.  Each
# bad case is "arguments|the argument the error must name".
out=$("$CALIBRATE" 20000 base) \
    || fail "calibrate 20000 base exited nonzero"
echo "$out" | grep -q "base CPI" \
    || fail "calibrate 20000 base printed no base CPI"
for case in "abc base|abc" "0 base|0" "4x|4x" "20000 bogus|bogus" \
            "20000 base extra|extra"; do
    args=${case%|*}
    bad=${case#*|}
    # shellcheck disable=SC2086
    if "$CALIBRATE" $args >"$dir/out" 2>"$dir/err"; then
        fail "calibrate $args exited 0"
    fi
    [ -s "$dir/out" ] && fail "calibrate $args printed results"
    grep -q -- "'$bad'" "$dir/err" \
        || fail "calibrate $args did not name '$bad'"
done

echo "ok: gaassim and cachesim read v2 and v3; bad arguments rejected"
