#!/bin/sh
# The simulate loops are flat: every Simulator::runLoopT
# instantiation inlines the instruction step and the hit path below
# it -- the CacheSystem access paths, the MMU translation and the TLB
# probe -- which are pinned with [[gnu::always_inline]] (DESIGN §6,
# "Hot core").  The compiler keeps no out-of-line copy of a function
# it inlined at every call, so a defined symbol for any of them in
# the core library means some caller calls it.
#
# usage: test_flat_loops.sh NM LIBRARY
set -u
nm=${1:?usage: test_flat_loops.sh NM LIBRARY}
lib=${2:?usage: test_flat_loops.sh NM LIBRARY}

symbols=$("$nm" -C "$lib") || {
    echo "FAIL: '$nm -C $lib' failed"
    exit 1
}
# Defined code symbols only ("ADDR TYPE NAME"; an undefined one has
# no address, so its type lands in the first field).
defined=$(printf '%s\n' "$symbols" | awk '$2 ~ /^[TtWw]$/')

loops=$(printf '%s\n' "$defined" |
    grep -cE 'gaas::core::Simulator::runLoopT<.*>\([^()]*\)$')
if [ "$loops" -eq 0 ]; then
    echo "FAIL: no Simulator::runLoopT instantiation in $lib"
    exit 1
fi

pinned='gaas::core::Simulator::stepInstruction<'
pinned="$pinned|gaas::core::CacheSystem::(ifetchT|loadT|storeT)<"
pinned="$pinned|gaas::mmu::Mmu::translate(Inst|Data)?\\("
pinned="$pinned|gaas::mmu::Tlb::access\\("
outlined=$(printf '%s\n' "$defined" | grep -E "$pinned")
if [ -n "$outlined" ]; then
    echo "FAIL: pinned hit-path functions compiled out of line:"
    printf '%s\n' "$outlined" | sed 's/^/  /'
    exit 1
fi
echo "ok: $loops runLoopT instantiations, no out-of-line step or" \
    "hit-path call"
