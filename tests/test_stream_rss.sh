# Streaming memory ceiling test.
#
# Usage: test_stream_rss.sh <path-to-tracepack>
#
# Synthesizes a v3 trace whose decoded form is ~100 MB (25M packed
# u32 records) and drains it in a fresh process through StreamSource
# with an 8 MiB ceiling.  The drain's peak RSS (VmHWM, which also
# counts the binary and libc) must stay under 64 MiB -- far below
# what materializing the trace would need, proving the streaming
# pipeline's memory is bounded by the ceiling, not the trace length.
# Then drains it under a 2 MiB and a 256 MiB ceiling: the ceiling is
# a cap, not a size, so the two peaks must lie within 1 MiB of each
# other.

set -eu

TRACEPACK=$1
dir=$(mktemp -d "${TMPDIR:-/tmp}/gaas_stream_rss.XXXXXX")
trap 'rm -rf "$dir"' EXIT INT TERM

"$TRACEPACK" synth "$dir/big.v3" --instructions 20000000 --seed 11

out=$("$TRACEPACK" drain "$dir/big.v3" --stream-mb 8)
echo "$out"

records=$(echo "$out" | sed -n 's/^drained \([0-9]*\) records.*/\1/p')
rss=$(echo "$out" | sed -n 's/^peak_rss_kb: \([0-9]*\)$/\1/p')

if [ -z "$records" ] || [ -z "$rss" ]; then
    echo "FAIL: could not parse tracepack drain output" >&2
    exit 1
fi
if [ "$records" -lt 20000000 ]; then
    echo "FAIL: drained only $records records" >&2
    exit 1
fi
if [ "$rss" -eq 0 ]; then
    echo "skip: VmHWM unavailable on this kernel"
    exit 0
fi
if [ "$rss" -gt 65536 ]; then
    echo "FAIL: peak RSS ${rss} KiB exceeds the 64 MiB bound" \
         "(ceiling was 8 MiB; decoded trace is ~100 MB)" >&2
    exit 1
fi

# peak_rss_kb of a drain under a $1 MiB ceiling.
drain_rss() {
    "$TRACEPACK" drain "$dir/big.v3" --stream-mb "$1" \
        | sed -n 's/^peak_rss_kb: \([0-9]*\)$/\1/p'
}
small=$(drain_rss 2)
large=$(drain_rss 256)
if [ -z "$small" ] || [ -z "$large" ]; then
    echo "FAIL: could not parse tracepack drain output" >&2
    exit 1
fi
diff=$((large - small))
if [ "$diff" -lt 0 ]; then
    diff=$((-diff))
fi
if [ "$diff" -gt 1024 ]; then
    echo "FAIL: peak RSS ${small} KiB under a 2 MiB ceiling but" \
         "${large} KiB under 256 MiB: the ceiling sized the buffers" >&2
    exit 1
fi
echo "ok: peak RSS ${rss} KiB under an 8 MiB streaming ceiling;" \
     "${small} KiB under 2 MiB and ${large} KiB under 256 MiB"
