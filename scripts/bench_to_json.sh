#!/usr/bin/env bash
# Machine-readable perf baseline: run the Presburger microbenchmarks
# and the registry-wide compile-time A/B sweep, writing
#
#   BENCH_presburger.json     microkernel ns/op + per-workload
#                             baseline/optimized wall-ms, FM work and
#                             cache hit rate
#   BENCH_compile_time.json   registry compile-time sweep at --jobs 1
#                             (the geomean-speedup trajectory number)
#   BENCH_runtime.json        execution-tier sweep: interpreter vs
#                             bytecode (vs native when a C toolchain
#                             is present), with bit-identical-buffer
#                             verdicts per workload
#   BENCH_cache.json          kernel-cache sweep: cache-off vs cold
#                             vs warm compile wall-ms per workload,
#                             warm-hit and bit-identical-buffer
#                             verdicts, plus process cache counters
#   BENCH_parallel.json       tile-graph parallel runtime: sequential
#                             vs 1/2/4/8-thread wall-ms and speedup
#                             per workload (static strategy on
#                             coincident bands, graph on the seidel
#                             wavefront), with tile counts, critical-
#                             path lengths and bit-identical-buffer
#                             verdicts; hardwareThreads records the
#                             machine's concurrency and singleCore
#                             whether speedup claims were withheld
#                             (one-core box)
#   BENCH_backends.json       backend registry sweep: per-workload
#                             latency and numerical deviation
#                             (maxAbs/maxUlp vs the interpreter) for
#                             every registered backend (tier x
#                             par), with per-backend contract
#                             verdicts, hardwareThreads and the
#                             singleCore flag
#   BENCH_service.json        compile-service robustness baseline:
#                             p50/p95/p99 client-observed latency for
#                             warm compile+run and ping requests,
#                             mean queue wait, flood ok/shed split
#                             with recovery verdict, and the
#                             transient-native retry/degrade verdict
#   BENCH_autotune.json       tile-search sweep: exhaustive oracle vs
#                             model-guided per workload (candidates
#                             measured, wall-ms, modeled-quality gap),
#                             aggregate measured fraction and geomean
#                             search speedup, and the near-miss
#                             warm-start verdict
#
# at the repository root. All benches compare the optimized
# configuration (inline SmallVec rows + op cache) against the
# baseline (forced-heap rows, cache off) in the same process and exit
# nonzero when any workload's generated C differs — so this script
# doubles as a correctness gate.
#
#   scripts/bench_to_json.sh [build-dir]      default: ./build
#
# See README.md ("Perf baseline") for the JSON schema.
set -euo pipefail

src="${POLYFUSE_SOURCE_DIR:-$(cd "$(dirname "$0")/.." && pwd)}"
build="${1:-$src/build}"
jobs="$(nproc 2>/dev/null || echo 4)"

if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -B "$build" -S "$src"
fi
cmake --build "$build" -j "$jobs" \
    --target bench_presburger bench_compile_time bench_runtime \
    bench_parallel bench_backends bench_cache bench_service \
    bench_autotune

echo "== bench_presburger --json -> BENCH_presburger.json =="
"$build/bench/bench_presburger" --json > "$src/BENCH_presburger.json"
echo "== bench_compile_time --json -> BENCH_compile_time.json =="
"$build/bench/bench_compile_time" --json \
    > "$src/BENCH_compile_time.json"
echo "== bench_runtime --json -> BENCH_runtime.json =="
"$build/bench/bench_runtime" --json > "$src/BENCH_runtime.json"
echo "== bench_parallel --json -> BENCH_parallel.json =="
"$build/bench/bench_parallel" --json > "$src/BENCH_parallel.json"
echo "== bench_backends --json -> BENCH_backends.json =="
"$build/bench/bench_backends" --json > "$src/BENCH_backends.json"
echo "== bench_cache --json -> BENCH_cache.json =="
"$build/bench/bench_cache" --json > "$src/BENCH_cache.json"
echo "== bench_service --json -> BENCH_service.json =="
"$build/bench/bench_service" --json > "$src/BENCH_service.json"
echo "== bench_autotune --json -> BENCH_autotune.json =="
"$build/bench/bench_autotune" --json > "$src/BENCH_autotune.json"

# Surface the headline numbers; the benches already failed the
# script (set -e) on any generated-code or buffer mismatch.
grep -o '"geomeanSpeedup": [0-9.]*' "$src/BENCH_compile_time.json"
grep -o '"geomeanSpeedup": [0-9.]*' "$src/BENCH_runtime.json"
# Speedup claims are withheld on single-core machines; singleCore
# carries the verdict through either way.
grep -o '"geomeanSpeedup4": [0-9.]*' "$src/BENCH_parallel.json" \
    || true
grep -o '"singleCore": [a-z]*' "$src/BENCH_parallel.json"
grep -o '"singleCore": [a-z]*' "$src/BENCH_backends.json"
grep -o '"allWithinContract": [a-z]*' "$src/BENCH_backends.json"
grep -o '"geomeanWarmSpeedup": [0-9.]*' "$src/BENCH_cache.json"
grep -o '"compileP99Ms": [0-9.]*' "$src/BENCH_service.json"
grep -o '"geomeanSpeedup": [0-9.]*' "$src/BENCH_autotune.json"
grep -o '"allOk": [a-z]*' "$src/BENCH_autotune.json"
echo "== perf baseline written =="
