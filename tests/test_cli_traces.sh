# Trace-format and argument-parsing test for the gaassim, cachesim,
# tracepack and calibrate front ends.
#
# Usage: test_cli_traces.sh <tracepack> <gaassim> <cachesim> <calibrate>
#
# v3 is the only format the tools read; `tracepack pack` is the one
# reader of the flat v1/v2 format.  A small v2 fixture, built here
# byte by byte, must be rejected by gaassim, cachesim and tracepack
# info/drain/verify with a message naming `tracepack pack`; after
# `tracepack pack`, cachesim must count the fixture's exact records.
# `pack` of a v3 input and the removed `unpack` must exit nonzero.
# A synthesized v3 trace runs through `gaassim --trace` and cachesim.
# Malformed or zero numeric flags, --mp given with --trace, a second
# --preset or --config, an unknown cachesim --kind, and a bad
# calibrate budget or mode must exit nonzero, naming the bad value,
# before any simulation; a zero tracepack count or size, and a
# --stream-mb whose byte count does not fit a size_t, must exit 2,
# naming the option.  gaassim's --slice holds wherever it stands, and
# an unwritable --stats or --stats-json file fails the run.  A
# GAAS_TRACE_STREAM_MB whose byte count overflows warns once and
# falls back to the default ceiling.

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

out=$("$GAASSIM" --trace "$dir/t.v3" --instructions 30000) \
    || fail "gaassim --trace t.v3 exited nonzero"
instr=$(echo "$out" |
    sed -n 's/^sim\.instructions  *\([0-9]*\) .*/\1/p')
[ -n "$instr" ] && [ "$instr" -gt 0 ] \
    || fail "gaassim --trace t.v3 reported no instructions"

out=$("$CACHESIM" "$dir/t.v3") || fail "cachesim t.v3 exited nonzero"
accesses=$(echo "$out" | sed -n 's/^accesses: \([0-9]*\)$/\1/p')
[ -n "$accesses" ] && [ "$accesses" -gt 0 ] \
    || fail "cachesim t.v3 reported no accesses"

# A v2 file: header (magic "GTRC", version 2, record count 6), then
# 9-byte records (u64 address, meta byte: kind | syscall << 2 |
# partialWord << 3), all little endian.  3 instructions (one a
# syscall), 1 load, 2 stores (one partial-word).
{
    printf 'GTRC\002\000\000\000\006\000\000\000\000\000\000\000'
    printf '\000\000\100\000\000\000\000\000\000'
    printf '\000\000\000\020\000\000\000\000\001'
    printf '\004\000\100\000\000\000\000\000\000'
    printf '\000\377\376\177\000\000\000\000\002'
    printf '\010\000\100\000\000\000\000\000\004'
    printf '\004\377\376\177\000\000\000\000\012'
} >"$dir/t.v2"
[ "$(wc -c <"$dir/t.v2")" -eq 70 ] || fail "the v2 fixture is not 70 bytes"

# Every v3 reader rejects it, pointing at the importer.
rejects_v2() {
    if "$@" "$dir/t.v2" >/dev/null 2>"$dir/err"; then
        fail "$* accepted a v2 file"
    fi
    grep -q 'tracepack pack' "$dir/err" \
        || fail "$* did not name tracepack pack for a v2 file"
}
rejects_v2 "$GAASSIM" --trace
rejects_v2 "$CACHESIM"
rejects_v2 "$TRACEPACK" info
rejects_v2 "$TRACEPACK" drain
rejects_v2 "$TRACEPACK" verify

# The importer converts it losslessly.
"$TRACEPACK" pack "$dir/t.v2" "$dir/p.v3" >/dev/null \
    || fail "tracepack pack of the v2 fixture exited nonzero"
"$TRACEPACK" verify "$dir/p.v3" >/dev/null \
    || fail "tracepack verify of the packed fixture exited nonzero"
out=$("$CACHESIM" "$dir/p.v3") \
    || fail "cachesim of the packed fixture exited nonzero"
echo "$out" | grep -q '^trace: .* (3 inst, 1 loads, 2 stores)$' \
    || fail "cachesim counted the packed fixture wrong: $out"

# v3 needs no import, and the v3 -> v2 direction is gone.
"$TRACEPACK" pack "$dir/t.v3" "$dir/again.v3" >/dev/null 2>"$dir/err" \
    && fail "tracepack pack accepted a v3 input"
grep -q 'already format v3' "$dir/err" \
    || fail "tracepack pack of a v3 input did not say it is v3"
[ -e "$dir/again.v3" ] && fail "a rejected tracepack pack wrote output"
"$TRACEPACK" unpack "$dir/t.v3" "$dir/back.v2" >/dev/null 2>&1
status=$?
[ "$status" -eq 2 ] || fail "tracepack unpack exited $status, not 2"

# --mp sizes the synthetic workload only.
if "$GAASSIM" --mp 3 --trace "$dir/t.v3" --instructions 1000 \
    >/dev/null 2>"$dir/err"; then
    fail "gaassim --mp 3 --trace exited 0"
fi
grep -q -- "--mp" "$dir/err" || fail "gaassim --mp --trace did not name --mp"

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

# One configuration per run: a second --preset or --config is refused
# (the usage line lists them as alternatives).
: >"$dir/empty.cfg"
for args in "--preset base --preset optimized|--preset" \
            "--preset base --config $dir/empty.cfg|--config" \
            "--config $dir/empty.cfg --preset base|--preset"; do
    flags=${args%|*}
    second=${args#*|}
    # shellcheck disable=SC2086
    if "$GAASSIM" $flags --instructions 1000 >/dev/null 2>"$dir/err"; then
        fail "gaassim $flags exited 0"
    fi
    grep -q -- "$second after" "$dir/err" \
        || fail "gaassim $flags did not name the second $second"
done

# --slice overrides the configuration's time slice on either side of
# --preset: both orders switch contexts equally often.
switches() {
    "$GAASSIM" "$@" --instructions 200000 |
        sed -n 's/^sim\.context_switches  *\([0-9]*\) .*/\1/p'
}
before=$(switches --slice 1000 --preset base)
after=$(switches --preset base --slice 1000)
[ -n "$after" ] && [ "$before" = "$after" ] \
    || fail "--slice 1000 gave $before context switches before" \
        "--preset and $after after it"

# A stats file that cannot be written fails the run.
for args in "--stats $dir/missing/s.txt" \
            "--stats-json /dev/null/s.json"; do
    # shellcheck disable=SC2086
    if "$GAASSIM" --instructions 1000 $args >/dev/null 2>&1; then
        fail "gaassim $args exited 0"
    fi
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
# index, so 0 stays valid.  2^44 MiB and more do not fit a size_t in
# bytes: 2^44 used to wrap to 0 (the default ceiling) and 2^44 + 1 to
# 1 MiB.
for args in "synth $dir/z.v3 --instructions 0" \
            "synth $dir/z.v3 --seed 0" \
            "synth $dir/z.v3 --block-refs 0" \
            "drain $dir/t.v3 --stream-mb 0" \
            "drain $dir/t.v3 --stream-mb 17592186044416" \
            "drain $dir/t.v3 --stream-mb 17592186044417"; do
    # shellcheck disable=SC2086
    "$TRACEPACK" $args >/dev/null 2>"$dir/err"
    status=$?
    [ "$status" -eq 2 ] \
        || fail "tracepack $args exited $status, not 2"
    flag=$(echo "$args" | sed 's/.* \(--[a-z-]*\) [0-9]*$/\1/')
    grep -q -- "$flag" "$dir/err" \
        || fail "tracepack $args did not name $flag"
done
[ -e "$dir/z.v3" ] && fail "a rejected tracepack synth wrote $dir/z.v3"
"$TRACEPACK" synth "$dir/b0.v3" --bench 0 --instructions 1000 \
    >/dev/null || fail "tracepack synth --bench 0 exited nonzero"

# 2^44 MiB is 2^64 bytes: the ceiling does not fit a size_t, so the
# drain warns once, naming the knob, and streams under the default.
GAAS_TRACE_STREAM_MB=17592186044416 "$TRACEPACK" drain "$dir/t.v3" \
    >/dev/null 2>"$dir/err" \
    || fail "tracepack drain with a 2^44 MiB ceiling exited nonzero"
[ "$(grep -c '^warn:' "$dir/err")" -eq 1 ] \
    && grep -q 'GAAS_TRACE_STREAM_MB' "$dir/err" \
    || fail "a 2^44 MiB ceiling did not warn once naming the knob"

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

echo "ok: v3 read, v2 rejected and imported by tracepack pack;" \
    "bad arguments rejected"
