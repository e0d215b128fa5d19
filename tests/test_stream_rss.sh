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
# other.  Each drain reads the file once in order, so it must decode
# every block exactly once: blocks_decoded equals the block count
# `tracepack info` reports.

set -eu

TRACEPACK=$1
dir=$(mktemp -d "${TMPDIR:-/tmp}/gaas_stream_rss.XXXXXX")
trap 'rm -rf "$dir"' EXIT INT TERM

"$TRACEPACK" synth "$dir/big.v3" --instructions 20000000 --seed 11
blocks=$("$TRACEPACK" info "$dir/big.v3" \
    | sed -n 's/^  block size: .*(\([0-9]*\) blocks)$/\1/p')
if [ -z "$blocks" ]; then
    echo "FAIL: could not parse tracepack info output" >&2
    exit 1
fi

# Fail unless drain output $2 decoded each block once; $1 names it.
check_decodes() {
    decoded=$(echo "$2" | sed -n 's/^blocks_decoded: \([0-9]*\)$/\1/p')
    if [ "$decoded" != "$blocks" ]; then
        echo "FAIL: the drain under a $1 ceiling decoded" \
             "'$decoded' blocks of a $blocks-block file" >&2
        exit 1
    fi
}

out=$("$TRACEPACK" drain "$dir/big.v3" --stream-mb 8)
echo "$out"
check_decodes "8 MiB" "$out"

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

# peak_rss_kb of a drain under a $1 MiB ceiling, which must decode
# each block once.
drain_rss() {
    drained=$("$TRACEPACK" drain "$dir/big.v3" --stream-mb "$1")
    check_decodes "$1 MiB" "$drained"
    echo "$drained" | sed -n 's/^peak_rss_kb: \([0-9]*\)$/\1/p'
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
