#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it.
# Every argument goes to pmdb_bench, e.g.
#   bash benchmark/run.sh --workload tx_inproc --seed 1 --seconds 12 --trace 0
# Build output goes to stderr, so stdout carries only benchmark output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
    echo "run.sh: $root/src is missing; the benchmark builds the" \
         "program from a full checkout" >&2
    exit 1
fi

build="$root/build/benchmark"
{
    if [[ ! -f "$build/CMakeCache.txt" ]]; then
        cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$build" -j4
} >&2

# The record's git SHA; "unknown" outside a git checkout. The ceiling
# keeps git from adopting a repository above this checkout.
sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
       git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"

exec "$build/pmdb_bench" --spec "$root/BENCHMARK.json" --git "$sha" "$@"
