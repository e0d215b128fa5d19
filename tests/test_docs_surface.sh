#!/bin/sh
# Documentation-surface test: the docs name what the code has.
#
#  1. The GAAS_* environment variables the code reads -- every
#     "GAAS_*" string literal under src/, bench/ and tools/ -- are
#     exactly the names in README's one knob table, the table whose
#     header row is `| knob | default | meaning |`.
#  2. Every build/bench/NAME and build/tools/NAME that README or the
#     verify skill (.claude/skills/verify/SKILL.md) runs is a target
#     that bench/CMakeLists.txt or tools/CMakeLists.txt builds.
#     Globs such as build/bench/fig* are skipped.
#
# Usage: test_docs_surface.sh <source-dir>
set -u

SRC="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

status=0
fail() {
    echo "FAIL: $*" >&2
    status=1
}

# 1. Knobs.
grep -rhoE '"GAAS_[A-Z0-9_]+"' "$SRC/src" "$SRC/bench" "$SRC/tools" \
    | tr -d '"' | sort -u > "$WORK/code"
tables=$(grep -c '^| knob | default | meaning |' "$SRC/README.md")
[ "$tables" -eq 1 ] \
    || fail "README.md has $tables knob tables, expected exactly 1"
awk '/^\| knob \| default \| meaning \|/ { on = 1; next }
     on && /^\|/ { print; next }
     { on = 0 }' "$SRC/README.md" \
    | sed -n 's/^| `\(GAAS_[A-Z0-9_]*\)` |.*/\1/p' \
    | sort > "$WORK/readme"
if ! diff -u "$WORK/code" "$WORK/readme" > "$WORK/knobs.diff"; then
    fail "README's knob table (+) differs from the GAAS_* names the" \
        "code reads (-):"
    sed -n '3,$p' "$WORK/knobs.diff" | grep '^[-+]' >&2
fi

# 2. Binaries the docs run.
for dir in bench tools; do
    sed -nE 's/^[[:space:]]*(gaas_add_bench|add_executable)\(([A-Za-z0-9_]+).*/\2/p' \
        "$SRC/$dir/CMakeLists.txt" > "$WORK/targets-$dir"
done
for doc in README.md .claude/skills/verify/SKILL.md; do
    [ -f "$SRC/$doc" ] || continue
    grep -onE 'build/(bench|tools)/[A-Za-z0-9_*]+' "$SRC/$doc" \
        | grep -v '\*' | sed "s|^|$doc:|"
done > "$WORK/runs"
while IFS=: read -r doc line run; do
    dir=${run#build/}
    name=${dir#*/}
    dir=${dir%%/*}
    grep -qx "$name" "$WORK/targets-$dir" \
        || fail "$doc:$line runs $run, which $dir/CMakeLists.txt" \
            "does not build"
done < "$WORK/runs"

[ "$status" -eq 0 ] || exit 1
echo "ok: $(wc -l < "$WORK/code") knobs documented," \
    "$(wc -l < "$WORK/runs") binary runs resolve to targets"
exit 0
