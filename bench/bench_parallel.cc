/**
 * @file
 * Tile-graph parallel runtime benchmark — the machine-readable
 * baseline behind BENCH_parallel.json.
 *
 * Coincident-band workloads (compiled with the paper's composition)
 * run under the static strategy, the skewed/wavefront seidel sweep
 * under the graph strategy, each at 1/2/4/8 worker threads against
 * the sequential bytecode tape. Every parallel run's buffers are
 * compared bit-for-bit against the sequential run — the benchmark
 * doubles as a correctness gate and exits nonzero on any mismatch.
 *
 * Reported per workload: sequential wall-clock, per-thread-count
 * wall-clock and speedup, tiles executed, ready-queue waits, the
 * tile DAG's critical-path length, and the parallelism bound
 * tiles / criticalPath (the speedup ceiling no thread count can
 * beat). `hardwareThreads` records the machine's concurrency and
 * `singleCore` whether the process is effectively pinned to one
 * core (hardware count of 1 or a one-CPU affinity mask): on such a
 * box every speedup is pinned near 1x, so the geomean speedup
 * claims are withheld entirely — the rows remain as overhead
 * measurements, documented as such, not as a defect.
 *
 * Modes (bench/harness.hh): table, --json, and --smoke — a
 * two-workload subset at tiny sizes with the same equality
 * assertions; the check_par_smoke ctest runs this.
 */

#include "bench/harness.hh"
#include "driver/registry.hh"
#include "exec/engine.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

struct ThreadPoint
{
    unsigned threads = 0;
    double ms = 0;
    uint64_t waits = 0;
    bool identical = true;
};

struct ParRow
{
    std::string name;
    Strategy strategy = Strategy::Ours;
    exec::ParStrategy par = exec::ParStrategy::Static;
    double seqMs = 0;
    uint64_t tiles = 0;
    uint64_t criticalPath = 0;
    std::string fallback; ///< nonempty: parallel path never engaged
    std::vector<ThreadPoint> points;

    double
    speedupAt(unsigned threads) const
    {
        for (const auto &pt : points)
            if (pt.threads == threads && pt.ms > 0)
                return seqMs / pt.ms;
        return 0;
    }

    /** tiles / criticalPath: the DAG's speedup ceiling. */
    double
    parallelismBound() const
    {
        return criticalPath ? double(tiles) / double(criticalPath)
                            : 0;
    }

    bool
    identical() const
    {
        for (const auto &pt : points)
            if (!pt.identical)
                return false;
        return true;
    }
};

driver::WorkloadParams
benchParams(const std::string &name)
{
    if (name == "2mm")
        return {96, 96};
    if (name == "unsharp")
        return {64, 128};
    if (name == "seidel")
        return {512, 512};
    return {128, 128};
}

ParRow
measure(const driver::WorkloadSpec &spec,
        const driver::WorkloadParams &params, Strategy strategy,
        exec::ParStrategy par, int reps)
{
    ParRow r;
    r.name = spec.name;
    r.strategy = strategy;
    r.par = par;
    ir::Program p = spec.make(params);

    driver::PipelineOptions popts;
    popts.strategy = strategy;
    popts.tileSizes = spec.defaultTiles;
    auto state = driver::Pipeline(popts).run(p);

    exec::BytecodeKernel kernel =
        exec::BytecodeKernel::compile(p, state.ast);

    // Sequential baseline, keeping the buffers for equality.
    exec::Buffers ref(p);
    r.seqMs = minOfReps(reps, [&](int rep) {
        exec::Buffers buf = freshBuffers(p);
        auto stats = kernel.run(buf);
        if (rep == reps - 1)
            ref = std::move(buf);
        return stats.seconds * 1e3;
    });

    for (unsigned threads : kThreadCounts) {
        ThreadPoint pt;
        pt.threads = threads;
        pt.ms = minOfReps(reps, [&](int rep) {
            exec::Buffers buf = freshBuffers(p);
            exec::ParRunStats ps;
            std::string reason;
            auto stats = kernel.runParallel(
                buf, threads, par, &state.tileBands, ps, reason);
            if (rep == reps - 1) {
                pt.waits = ps.waits;
                pt.identical = bitIdentical(p, ref, buf);
                r.tiles = ps.tilesExecuted;
                r.criticalPath = ps.criticalPath;
                r.fallback = reason;
            }
            return stats.seconds * 1e3;
        });
        r.points.push_back(pt);
    }
    return r;
}

double
geomeanSpeedup(const std::vector<ParRow> &rows, unsigned threads,
               exec::ParStrategy only)
{
    std::vector<double> v;
    for (const auto &r : rows)
        if (r.par == only)
            v.push_back(r.speedupAt(threads));
    return geomean(v);
}

std::string
rowJson(const ParRow &r)
{
    std::vector<std::string> points;
    for (const ThreadPoint &pt : r.points)
        points.push_back(JsonObject()
                             .integer("threads", pt.threads)
                             .num("ms", pt.ms, "%.4f")
                             .num("speedup", r.speedupAt(pt.threads),
                                  "%.2f")
                             .integer("waits", pt.waits)
                             .text());
    return JsonObject()
        .str("name", r.name)
        .str("strategy", strategyName(r.strategy))
        .str("par", exec::parStrategyName(r.par))
        .num("seqMs", r.seqMs, "%.4f")
        .integer("tiles", r.tiles)
        .integer("criticalPath", r.criticalPath)
        .num("parallelismBound", r.parallelismBound(), "%.2f")
        .raw("threads", jsonArray(points))
        .boolean("identical", r.identical())
        .text();
}

std::vector<ParRow>
fullSweep(int reps)
{
    // Coincident-band workloads under the composition strategy
    // (static fast path) ...
    std::vector<ParRow> rows;
    for (const char *name :
         {"conv2d", "harris", "bilateral", "camera", "unsharp",
          "2mm"}) {
        const driver::WorkloadSpec *w = driver::findWorkload(name);
        if (!w)
            continue;
        rows.push_back(measure(*w, benchParams(name),
                               Strategy::Ours,
                               exec::ParStrategy::Static, reps));
    }
    // ... plus the skewed wavefront tiling through the tile DAG.
    if (const driver::WorkloadSpec *w = driver::findWorkload("seidel"))
        rows.push_back(measure(*w, benchParams("seidel"),
                               Strategy::MinFuse,
                               exec::ParStrategy::Graph, reps));
    return rows;
}

/** Smoke: tiny subset, equality gate only. */
int
runSmoke()
{
    int failures = 0;
    struct
    {
        const char *name;
        driver::WorkloadParams params;
        Strategy strategy;
        exec::ParStrategy par;
    } subset[] = {
        {"harris", {64, 256}, Strategy::Ours,
         exec::ParStrategy::Static},
        {"seidel", {48, 48}, Strategy::MinFuse,
         exec::ParStrategy::Graph},
    };
    for (const auto &s : subset) {
        const driver::WorkloadSpec *w = driver::findWorkload(s.name);
        if (!w) {
            std::printf("FAIL %s: not in registry\n", s.name);
            ++failures;
            continue;
        }
        ParRow r = measure(*w, s.params, s.strategy, s.par, 1);
        bool ok = r.identical() && r.fallback.empty() && r.tiles > 0;
        std::printf("%-10s %s: %llu tiles, critical path %llu, "
                    "buffers %s%s%s\n",
                    s.name, exec::parStrategyName(s.par),
                    (unsigned long long)r.tiles,
                    (unsigned long long)r.criticalPath,
                    r.identical() ? "bit-identical" : "MISMATCH",
                    r.fallback.empty() ? "" : ", fallback: ",
                    r.fallback.c_str());
        failures += ok ? 0 : 1;
    }
    if (failures) {
        std::printf("FAILED: %d parallel smoke failures\n", failures);
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
    if (!parseArgs(argc, argv, "bench_parallel [--smoke] [--json]",
                   args))
        return 2;
    if (args.smoke)
        return runSmoke();

    const int reps = 3;
    Host host = Host::probe();
    std::vector<ParRow> rows = fullSweep(reps);
    bool all_identical = true;
    for (const auto &r : rows)
        all_identical = all_identical && r.identical();

    if (args.json) {
        JsonObject out = benchJson("parallel", host);
        out.integer("reps", reps);
        std::vector<std::string> workloads;
        for (const auto &r : rows)
            workloads.push_back(rowJson(r));
        out.raw("workloads", jsonArray(workloads));
        // Pinned to one core, a "speedup" is thread-scheduling
        // noise: the baseline refuses the claim outright instead of
        // committing a misleading geomean.
        if (!host.singleCore) {
            out.num("geomeanSpeedup2",
                    geomeanSpeedup(rows, 2, exec::ParStrategy::Static),
                    "%.4f");
            out.num("geomeanSpeedup4",
                    geomeanSpeedup(rows, 4, exec::ParStrategy::Static),
                    "%.4f");
            out.num("geomeanSpeedup8",
                    geomeanSpeedup(rows, 8, exec::ParStrategy::Static),
                    "%.4f");
        }
        out.boolean("allIdentical", all_identical);
        std::printf("%s\n", out.text().c_str());
        return all_identical ? 0 : 1;
    }

    host.print();
    std::printf("=== Tile-graph parallel runtime (best of %d) ===\n",
                reps);
    printRow("workload",
             {"par", "seq ms", "x1", "x2", "x4", "x8", "tiles",
              "critpath", "buffers"},
             9);
    for (const auto &r : rows) {
        printRow(r.name,
                 {exec::parStrategyName(r.par), fmt(r.seqMs),
                  fmt(r.speedupAt(1), "%.2fx"),
                  fmt(r.speedupAt(2), "%.2fx"),
                  fmt(r.speedupAt(4), "%.2fx"),
                  fmt(r.speedupAt(8), "%.2fx"),
                  std::to_string(r.tiles),
                  std::to_string(r.criticalPath),
                  r.identical() ? "identical" : "MISMATCH"},
                 9);
    }
    if (host.singleCore)
        std::printf("geomean withheld: single-core machine, "
                    "speedup rows measure overhead only\n");
    else
        printRow(
            "geomean",
            {"static", "",
             fmt(geomeanSpeedup(rows, 1, exec::ParStrategy::Static),
                 "%.2fx"),
             fmt(geomeanSpeedup(rows, 2, exec::ParStrategy::Static),
                 "%.2fx"),
             fmt(geomeanSpeedup(rows, 4, exec::ParStrategy::Static),
                 "%.2fx"),
             fmt(geomeanSpeedup(rows, 8, exec::ParStrategy::Static),
                 "%.2fx"),
             "", "", ""},
            9);
    return all_identical ? 0 : 1;
}
