/**
 * @file
 * E7 -- compilation-time comparison (Table I columns + Sec. VI-D):
 * scheduling time of minfuse, smartfuse, maxfuse and our composition
 * on the six image pipelines, now with the driver's per-pass
 * breakdown (Fuse / Compose / Tile / Codegen) instead of one lumped
 * number.
 *
 * Paper expectation (shape): ours stays close to the cheap
 * heuristics and far below maxfuse (which the paper could not finish
 * within a day on four pipelines); Harris is the noted exception
 * where the footprint computation (the Compose pass) dominates for
 * our approach.
 */

#include "bench/harness.hh"
#include "driver/batch.hh"
#include "support/thread_pool.hh"
#include "workloads/pipelines.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

int
main(int argc, char **)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: bench_compile_time\n");
        return 2;
    }
    workloads::PipelineConfig cfg{256, 256};
    struct Entry
    {
        const char *name;
        ir::Program (*make)(const workloads::PipelineConfig &);
    };
    std::vector<Entry> entries = {
        {"BilateralGrid", workloads::makeBilateralGrid},
        {"CameraPipeline", workloads::makeCameraPipeline},
        {"HarrisCorner", workloads::makeHarris},
        {"LocalLaplacian", workloads::makeLocalLaplacian},
        {"MultiscaleInterp", workloads::makeMultiscaleInterp},
        {"UnsharpMask", workloads::makeUnsharpMask},
    };
    std::vector<Strategy> strategies = {
        Strategy::MinFuse, Strategy::SmartFuse, Strategy::MaxFuse,
        Strategy::Ours};

    std::printf("=== Compilation time per pass (ms; best of 3) "
                "===\n");
    printRow("benchmark/strategy",
             {"fuse", "compose", "tile", "codegen", "total"}, 10);
    for (const auto &e : entries) {
        ir::Program p = e.make(cfg);
        for (Strategy s : strategies) {
            RunOptions opts;
            opts.tileSizes = {32, 32};
            // Best of three to de-noise; keep the stats of the
            // fastest run so the breakdown matches the total.
            driver::CompilationState fastest;
            double best_ms = minOfReps(3, [&](int rep) {
                auto state = compileStrategy(p, s, opts);
                double ms = state.compileMs();
                if (rep == 0 || ms < fastest.compileMs())
                    fastest = std::move(state);
                return ms;
            });
            const driver::PassStats &best = fastest.stats;
            printRow(std::string(e.name) + "/" + strategyName(s),
                     {fmt(best.msOf("Fuse")),
                      fmt(best.msOf("Compose")),
                      fmt(best.msOf("Tile")),
                      fmt(best.msOf("Codegen")), fmt(best_ms)},
                     10);
        }
        std::printf("\n");
    }
    std::printf("Dependence analysis is shared by all strategies "
                "and excluded from the total;\nmaxfuse's shift "
                "search lands in `fuse`, ours' footprint "
                "computation in `compose`.\n");

    // Batch sweep: the same pipeline x strategy grid through
    // driver::compileBatch, sequentially and on every hardware
    // thread, so the batching speedup is visible next to the E7
    // sequential numbers (which remain the paper artifact above).
    auto makeJobs = [&] {
        std::vector<driver::BatchJob> jobs;
        for (const auto &e : entries) {
            for (Strategy s : strategies) {
                driver::BatchJob job;
                job.name =
                    std::string(e.name) + "/" + strategyName(s);
                job.options.strategy = s;
                job.options.tileSizes = {32, 32};
                auto make = e.make;
                job.make = [make, cfg] { return make(cfg); };
                jobs.push_back(std::move(job));
            }
        }
        return jobs;
    };
    unsigned hw = ThreadPool::defaultThreads();
    std::printf("\n=== Batch compilation (driver::compileBatch, "
                "%zu jobs) ===\n",
                entries.size() * strategies.size());
    auto seq = driver::compileBatch(makeJobs(), 1);
    auto par = driver::compileBatch(makeJobs(), hw);
    printRow("jobs=1", {fmt(seq.wallMs), "wall ms"}, 10);
    printRow("jobs=" + std::to_string(hw),
             {fmt(par.wallMs), "wall ms"}, 10);
    printRow("speedup",
             {fmt(par.wallMs > 0 ? seq.wallMs / par.wallMs : 0.0,
                  "%.2fx")},
             10);
    if (seq.failed() || par.failed())
        std::printf("WARNING: %u/%u jobs failed\n", seq.failed(),
                    par.failed());
    return 0;
}
