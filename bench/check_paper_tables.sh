#!/bin/sh
# Run the paper benches (Tables 1, 2 and 4, Figures 5-7, the ablations,
# the ORAM overhead and lifetime benches) and diff each one's stdout
# against its committed bench/expected/<bench>.txt. The benches are
# seeded and deterministic, so any difference is a finding.
#
#   bench/check_paper_tables.sh [build-dir]    (default: build)
#
# Build the benches first (a Release build runs them in ~40 s on a
# 4-core machine). Set UPDATE=1 to rewrite the expected files instead,
# after an intentional change to what a bench prints or computes.
set -u
build=${1:-build}
here=$(cd "$(dirname "$0")" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

ls "$here"/expected/*.txt | xargs -n 1 basename | sed 's/\.txt$//' |
    xargs -P "$(nproc)" -I{} sh -c "'$build/bench/{}' > '$out/{}.txt'"

status=0
for expected in "$here"/expected/*.txt; do
    name=$(basename "$expected")
    if [ "${UPDATE:-0}" = 1 ]; then
        cp "$out/$name" "$expected"
    elif diff -u "$expected" "$out/$name"; then
        echo "ok: ${name%.txt}"
    else
        echo "MISMATCH: ${name%.txt}"
        status=1
    fi
done
exit $status
