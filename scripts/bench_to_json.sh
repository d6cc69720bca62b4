#!/usr/bin/env bash
# Machine-readable perf baseline: run every JSON bench and write its
# BENCH_<name>.json at the repository root.
#
#   BENCH_presburger.json  Presburger microkernel ns/op, plus the
#                          registry compile-time A/B sweep at --jobs 1:
#                          per-workload baseline/optimized wall-ms,
#                          FM work, cache hit rate, geomeanSpeedup
#   BENCH_parallel.json    tile-graph parallel runtime: sequential vs
#                          1/2/4/8-thread wall-ms and speedup per
#                          workload, tile counts, critical paths
#   BENCH_backends.json    every registered backend (tier x par) per
#                          workload: latency and deviation from the
#                          interpreter, contract verdicts, and the
#                          bytecode and native geomean speedups over
#                          the interpreter
#   BENCH_cache.json       kernel cache: off vs cold vs warm compile
#                          wall-ms, warm-hit verdicts, cache counters
#   BENCH_service.json     compile service: client-observed latency
#                          percentiles, flood shed/recovery and the
#                          transient-native retry verdict
#   BENCH_autotune.json    tile search: exhaustive oracle vs guided
#                          per workload, measured fraction, search
#                          speedup and the near-miss warm start
#
# Every file opens with the host block (threads, affinity, CPU model,
# cc version, build type). Every bench checks its outputs (generated
# C or buffers bit for bit) and exits nonzero on a mismatch, so this
# script doubles as a correctness gate.
#
#   scripts/bench_to_json.sh [build-dir]      default: ./build
#
# See README.md ("Perf baseline") for the JSON schema.
set -euo pipefail

src="${POLYFUSE_SOURCE_DIR:-$(cd "$(dirname "$0")/.." && pwd)}"
build="${1:-$src/build}"
jobs="$(nproc 2>/dev/null || echo 4)"
benches="presburger parallel backends cache service autotune"

if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -B "$build" -S "$src"
fi
cmake --build "$build" -j "$jobs" \
    --target $(printf 'bench_%s ' $benches)

for b in $benches; do
    echo "== bench_$b --json -> BENCH_$b.json =="
    "$build/bench/bench_$b" --json > "$src/BENCH_$b.json"
    # Headline numbers and verdicts.
    grep -oE '"([A-Za-z]*[Gg]eomean[A-Za-z0-9]*|compileP99Ms|singleCore|all[A-Z][a-zA-Z]*)": [a-z0-9.]+' \
        "$src/BENCH_$b.json" || true
done
echo "== perf baseline written =="
