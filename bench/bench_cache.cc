/**
 * @file
 * Kernel-cache benchmark — the machine-readable artifact/cache
 * baseline behind BENCH_cache.json.
 *
 * Every registry workload is compiled through driver::compileKernel
 * three ways:
 *
 *   off    no cache (the plain plan -> compile path)
 *   cold   first compile against a shared exec::KernelCache (miss:
 *          full pipeline + bytecode lowering + insert)
 *   warm   repeat compile against the same cache (hit: fingerprint
 *          lookup only, the whole Presburger/codegen pipeline is
 *          skipped)
 *
 * Besides compile wall-clock (warm is the median per-lookup time over
 * reads of >= 1 ms batches), every variant's
 * artifact is executed and the output buffers compared bit-for-bit
 * against the cache-off reference — the benchmark doubles as a
 * correctness gate and exits nonzero on any mismatch, missed warm
 * hit, or warm compile that still ran a pipeline pass.
 *
 * Modes (bench/harness.hh): table, --json, and --smoke — a
 * three-workload subset at tiny sizes with the same assertions; the
 * check_cache_smoke ctest runs this.
 */

#include "bench/harness.hh"
#include "driver/artifact.hh"
#include "driver/registry.hh"
#include "exec/kernel_cache.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

namespace {

/** Timer reads behind each warm row (each a >= 1 ms batch). */
constexpr int kWarmReads = 9;

struct CacheTimes
{
    std::string name;
    double offCompileMs = 0;  ///< no cache
    double coldCompileMs = 0; ///< miss (compile + insert)
    double warmCompileMs = 0; ///< hit (lookup only), median per lookup
    bool warmHit = false;     ///< the repeat compile was a hit
    bool warmPipelineFree = false; ///< hit ran no pipeline pass
    bool identical = true;    ///< all variants match cache-off bits

    double
    speedup() const
    {
        return warmCompileMs > 0 ? coldCompileMs / warmCompileMs : 0;
    }
};

/** Compile-benchmark sizes: compile cost dominates and is largely
 *  size-independent, so modest sizes keep the execute gate fast. */
driver::WorkloadParams
benchParams(const std::string &name)
{
    if (name == "equake")
        return {256, 16};
    if (name == "convbn")
        return {8, 8};
    return {64, 64};
}

exec::Buffers
runArtifact(const driver::KernelArtifact &artifact,
            const ir::Program &p)
{
    exec::Buffers buf = freshBuffers(p);
    driver::executeKernel(artifact, buf);
    return buf;
}

CacheTimes
measureWorkload(const driver::WorkloadSpec &spec,
                const driver::WorkloadParams &params, int reads,
                exec::KernelCache &cache)
{
    CacheTimes r;
    r.name = spec.name;
    auto p = std::make_shared<const ir::Program>(spec.make(params));

    driver::PipelineOptions popts;
    popts.strategy = Strategy::Ours;
    popts.tileSizes = spec.defaultTiles;
    driver::Pipeline pipeline(popts);

    // Reference: no cache.
    Timer t_off;
    auto off = driver::compileKernel(pipeline, p);
    r.offCompileMs = t_off.milliseconds();

    // Cold: first compile against the shared cache (miss + insert).
    driver::ArtifactOptions aopts;
    aopts.cache = &cache;
    Timer t_cold;
    auto cold = driver::compileKernel(pipeline, p, aopts);
    r.coldCompileMs = t_cold.milliseconds();

    // Warm: repeat compiles are pure lookups of a few tens of
    // microseconds, too short for one timer read each. Each read
    // times a batch of them (doubled until it takes 1 ms); the row
    // keeps the median per-lookup time over the reads.
    driver::KernelArtifact warm;
    auto lookups = [&](int n) {
        Timer t;
        for (int i = 0; i < n; ++i)
            warm = driver::compileKernel(pipeline, p, aopts);
        return t.milliseconds();
    };
    int batch = 1;
    while (lookups(batch) < 1.0)
        batch *= 2;
    std::vector<double> per_lookup;
    for (int read = 0; read < reads; ++read)
        per_lookup.push_back(lookups(batch) / batch);
    r.warmCompileMs = median(per_lookup);
    r.warmHit = warm.fromCache;
    r.warmPipelineFree = warm.stats.passes().size() == 1 &&
                         warm.stats.passes()[0].name == "KernelCache";

    // Execute gate: every variant computes the cache-off bits.
    auto ref = runArtifact(off, *p);
    r.identical = bitIdentical(*p, ref, runArtifact(cold, *p)) &&
                  bitIdentical(*p, ref, runArtifact(warm, *p));
    return r;
}

std::string
rowJson(const CacheTimes &r)
{
    return JsonObject()
        .str("name", r.name)
        .num("offCompileMs", r.offCompileMs, "%.4f")
        .num("coldCompileMs", r.coldCompileMs, "%.4f")
        .num("warmCompileMs", r.warmCompileMs, "%.4f")
        .num("speedup", r.speedup(), "%.2f")
        .boolean("warmHit", r.warmHit)
        .boolean("identical", r.identical)
        .text();
}

bool
rowOk(const CacheTimes &r)
{
    return r.warmHit && r.warmPipelineFree && r.identical;
}

/** Smoke: tiny subset, hit/bit-identity gates only (timings are
 *  noise at this scale). Must stay well under the ctest budget. */
int
runSmoke()
{
    struct
    {
        const char *name;
        driver::WorkloadParams params;
    } subset[] = {
        {"conv2d", {24, 24}},
        {"harris", {24, 24}},
        {"2mm", {24, 24}},
    };
    exec::KernelCache cache;
    int failures = 0;
    for (const auto &s : subset) {
        const driver::WorkloadSpec *w = driver::findWorkload(s.name);
        if (!w) {
            std::printf("FAIL %s: not in registry\n", s.name);
            ++failures;
            continue;
        }
        CacheTimes r = measureWorkload(*w, s.params, 1, cache);
        bool ok = rowOk(r);
        std::printf("%-10s warm %s, pipeline %s, buffers %s\n",
                    s.name, r.warmHit ? "hit" : "MISS",
                    r.warmPipelineFree ? "skipped" : "RAN",
                    r.identical ? "bit-identical" : "MISMATCH");
        failures += ok ? 0 : 1;
    }
    if (failures) {
        std::printf("FAILED: %d cache gate failures\n", failures);
        return 1;
    }
    std::printf("ok\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, "bench_cache [--smoke] [--json]", args))
        return 2;
    if (args.smoke)
        return runSmoke();

    Host host = Host::probe();
    exec::KernelCache cache;
    std::vector<CacheTimes> rows;
    for (const auto &w : driver::workloadRegistry())
        rows.push_back(
            measureWorkload(w, benchParams(w.name), kWarmReads, cache));

    bool all_ok = true;
    std::vector<double> speedups;
    for (const auto &r : rows) {
        all_ok = all_ok && rowOk(r);
        speedups.push_back(r.speedup());
    }
    double geo = geomean(speedups);
    const auto &c = cache.counters();

    if (args.json) {
        std::vector<std::string> workloads;
        for (const auto &r : rows)
            workloads.push_back(rowJson(r));
        JsonObject out = benchJson("cache", host);
        out.str("strategy", "ours")
            .integer("warmReads", kWarmReads)
            .raw("workloads", jsonArray(workloads))
            .num("geomeanWarmSpeedup", geo, "%.1f")
            .integer("cacheHits", c.hits)
            .integer("cacheMisses", c.misses)
            .integer("cacheInsertions", c.insertions)
            .integer("cacheEvictions", c.evictions)
            .integer("cacheBytes", cache.bytes())
            .boolean("allIdentical", all_ok);
        std::printf("%s\n", out.text().c_str());
        return all_ok ? 0 : 1;
    }

    host.print();
    std::printf("=== Kernel cache (strategy ours, warm median of %d "
                "batched reads) ===\n",
                kWarmReads);
    printRow("workload",
             {"off ms", "cold ms", "warm ms", "speedup", "warm",
              "buffers"},
             11);
    for (const auto &r : rows)
        printRow(r.name,
                 {fmt(r.offCompileMs), fmt(r.coldCompileMs),
                  fmt(r.warmCompileMs, "%.4f"),
                  fmt(r.speedup(), "%.0fx"),
                  r.warmHit ? "hit" : "MISS",
                  r.identical ? "identical" : "MISMATCH"},
                 11);
    printRow("geomean", {"", "", "", fmt(geo, "%.0fx"), "", ""}, 11);
    std::printf("cache: %llu hits, %llu misses, %llu insertions, "
                "%llu evictions, %llu bytes\n",
                (unsigned long long)c.hits,
                (unsigned long long)c.misses,
                (unsigned long long)c.insertions,
                (unsigned long long)c.evictions,
                (unsigned long long)cache.bytes());
    return all_ok ? 0 : 1;
}
