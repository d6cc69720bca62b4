/**
 * @file
 * Autotune search benchmark — the machine-readable search-time vs
 * quality-of-result baseline behind BENCH_autotune.json.
 *
 * Every registry workload is tuned twice over the default PolyMage
 * candidate ladder:
 *
 *   exhaustive   every feasible candidate measured (the oracle)
 *   guided       model-ranked top-K with successive halving
 *
 * and the JSON reports, per workload, how many candidates guided
 * actually measured, the search wall-time speedup, and the quality
 * gap of guided's winner vs the oracle's modeled time. A third
 * phase exercises the near-miss path: tune one workload cold with a
 * tuning store, re-tune the same pipeline at scaled extents (the
 * shape key seeds the ranking and shrinks the budget), then re-tune
 * at the original extents (the exact key warm-starts outright).
 *
 * The benchmark doubles as the acceptance gate and exits nonzero
 * when any bound is violated:
 *
 *   - guided measures <= 25% of the exhaustive candidate count
 *     (aggregated across the registry sweep),
 *   - guided's winner is within 5% modeledMs of the oracle on every
 *     workload,
 *   - geomean search-time speedup >= 4x,
 *   - the seeded near-miss run measures fewer candidates than the
 *     cold run, and the exact-key re-run warm-starts.
 *
 * Modes (bench/harness.hh): table, --json, --smoke (a one-workload
 * guided smoke with determinism + pruning gates, sub-second; the
 * check_autotune_smoke ctest runs this), and two of its own:
 *
 *   --fit             measure every candidate on every workload and
 *                     print a fresh least-squares calibration (the
 *                     source of the constants in
 *                     perfmodel::defaultModelFit())
 *   --rank <workload> per-candidate model-vs-measurement dump
 */

#include "bench/harness.hh"
#include "driver/registry.hh"
#include "perfmodel/autotune.hh"
#include "perfmodel/model.hh"
#include "perfmodel/search.hh"
#include "perfmodel/tune_db.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

namespace {

/** Tuning-benchmark sizes: small enough that a full exhaustive
 *  sweep stays in seconds, big enough that several ladder rungs are
 *  feasible and locality effects separate them. */
driver::WorkloadParams
benchParams(const std::string &name)
{
    if (name == "equake")
        return {256, 16};
    if (name == "convbn")
        return {32, 8};
    if (name == "2mm" || name == "covariance")
        return {96, 96};
    if (name == "gemver")
        return {256, 256};
    return {64, 64};
}

perfmodel::AutotuneOptions
baseOptions(const driver::WorkloadSpec &spec)
{
    perfmodel::AutotuneOptions opts;
    opts.dims = unsigned(spec.defaultTiles.size());
    return opts;
}

struct TuneRow
{
    std::string name;
    unsigned dims = 0;
    unsigned total = 0;
    unsigned guidedMeasured = 0;
    double exhaustiveMs = 0;
    double guidedMs = 0;
    double modelRankMs = 0;
    double oracleModeledMs = 0;
    double guidedModeledMs = 0;
    std::vector<int64_t> oracleTiles;
    std::vector<int64_t> guidedTiles;

    double
    gapPct() const
    {
        return oracleModeledMs > 0
                   ? 100.0 *
                         (guidedModeledMs - oracleModeledMs) /
                         oracleModeledMs
                   : 0;
    }

    double
    speedup() const
    {
        return guidedMs > 0 ? exhaustiveMs / guidedMs : 0;
    }

    double
    measuredFrac() const
    {
        return total ? double(guidedMeasured) / double(total) : 0;
    }
};

TuneRow
measureWorkload(const driver::WorkloadSpec &spec)
{
    TuneRow r;
    r.name = spec.name;
    ir::Program p = spec.make(benchParams(spec.name));
    auto graph = deps::DependenceGraph::compute(p);
    auto init = [&p](exec::Buffers &buf) { initInputs(p, buf); };

    perfmodel::AutotuneOptions opts = baseOptions(spec);
    r.dims = opts.dims;

    opts.searchMode = perfmodel::SearchMode::Exhaustive;
    auto oracle = perfmodel::autotuneTileSizes(p, graph, init, opts);
    r.total = oracle.totalCandidates;
    r.exhaustiveMs = oracle.searchMs;
    r.oracleModeledMs = oracle.modeledMs;
    r.oracleTiles = oracle.tileSizes;

    opts.searchMode = perfmodel::SearchMode::Guided;
    auto guided = perfmodel::autotuneTileSizes(p, graph, init, opts);
    r.guidedMeasured = guided.evaluated;
    r.guidedMs = guided.searchMs;
    r.modelRankMs = guided.modelRankMs;
    r.guidedModeledMs = guided.modeledMs;
    r.guidedTiles = guided.tileSizes;
    return r;
}

struct NearMiss
{
    std::string workload = "conv2d";
    unsigned coldMeasured = 0;
    unsigned seededMeasured = 0;
    bool seededFromShape = false;
    bool exactWarmStart = false;

    bool
    ok() const
    {
        return seededFromShape && exactWarmStart &&
               seededMeasured < coldMeasured;
    }
};

/** Cold -> extent-scaled (shape seed) -> same-extent (exact warm
 *  start), all against one throwaway store. */
NearMiss
measureNearMiss()
{
    NearMiss n;
    const driver::WorkloadSpec *spec =
        driver::findWorkload(n.workload);
    std::string db_path = "bench_autotune.tunedb.json";
    std::remove(db_path.c_str());
    {
        perfmodel::TuneDb db(db_path);
        auto tune = [&](driver::WorkloadParams params) {
            ir::Program p = spec->make(params);
            auto graph = deps::DependenceGraph::compute(p);
            auto init = [&p](exec::Buffers &buf) {
                initInputs(p, buf);
            };
            perfmodel::AutotuneOptions opts = baseOptions(*spec);
            opts.searchMode = perfmodel::SearchMode::Guided;
            opts.db = &db;
            return perfmodel::autotuneTileSizes(p, graph, init,
                                                opts);
        };
        auto cold = tune({64, 64});
        n.coldMeasured = cold.evaluated;
        auto seeded = tune({96, 96});
        n.seededMeasured = seeded.evaluated;
        n.seededFromShape = seeded.seededFromShape;
        auto warm = tune({64, 64});
        n.exactWarmStart = warm.warmStart;
    }
    std::remove(db_path.c_str());
    return n;
}

std::string
tilesJson(const std::vector<int64_t> &tiles)
{
    std::vector<std::string> items;
    for (int64_t t : tiles)
        items.push_back(std::to_string(t));
    return jsonArray(items);
}

std::string
rowJson(const TuneRow &r, double gap_bound)
{
    return JsonObject()
        .str("name", r.name)
        .integer("dims", r.dims)
        .integer("totalCandidates", r.total)
        .integer("guidedMeasured", r.guidedMeasured)
        .integer("guidedPruned", r.total - r.guidedMeasured)
        .num("measuredFrac", r.measuredFrac(), "%.4f")
        .num("exhaustiveMs", r.exhaustiveMs, "%.3f")
        .num("guidedMs", r.guidedMs, "%.3f")
        .num("modelRankMs", r.modelRankMs, "%.4f")
        .num("speedup", r.speedup(), "%.2f")
        .num("oracleModeledMs", r.oracleModeledMs, "%.6f")
        .num("guidedModeledMs", r.guidedModeledMs, "%.6f")
        .num("qualityGapPct", r.gapPct(), "%.4f")
        .raw("oracleTiles", tilesJson(r.oracleTiles))
        .raw("guidedTiles", tilesJson(r.guidedTiles))
        .boolean("withinBound", r.gapPct() <= gap_bound)
        .text();
}

/** Smoke: one small guided search; assert it prunes, stays
 *  deterministic across job counts, and picks a feasible size.
 *  Must stay well under the ctest budget. */
int
runSmoke()
{
    const driver::WorkloadSpec *spec = driver::findWorkload("conv2d");
    ir::Program p = spec->make({32, 32});
    auto graph = deps::DependenceGraph::compute(p);
    auto init = [&p](exec::Buffers &buf) { initInputs(p, buf); };
    perfmodel::AutotuneOptions opts = baseOptions(*spec);
    opts.searchMode = perfmodel::SearchMode::Guided;
    auto seq = perfmodel::autotuneTileSizes(p, graph, init, opts);
    opts.jobs = 4;
    auto par = perfmodel::autotuneTileSizes(p, graph, init, opts);

    int failures = 0;
    if (seq.tileSizes.size() != opts.dims ||
        seq.evaluated == 0) {
        std::printf("FAIL: guided search returned no result\n");
        ++failures;
    }
    if (seq.evaluated >= seq.totalCandidates) {
        std::printf("FAIL: guided search pruned nothing (%u of "
                    "%u measured)\n",
                    seq.evaluated, seq.totalCandidates);
        ++failures;
    }
    if (par.tileSizes != seq.tileSizes ||
        par.evaluated != seq.evaluated) {
        std::printf("FAIL: jobs=4 diverged from jobs=1\n");
        ++failures;
    }
    if (failures)
        return 1;
    std::printf("ok: guided measured %u of %u candidates, "
                "tiles deterministic across jobs\n",
                seq.evaluated, seq.totalCandidates);
    return 0;
}

/** Calibration: exhaustive samples over the whole registry, one
 *  fresh least-squares fit, printed paste-ready. */
int
runFit()
{
    std::vector<perfmodel::ModelSample> samples;
    for (const auto &spec : driver::workloadRegistry()) {
        ir::Program p = spec.make(benchParams(spec.name));
        auto graph = deps::DependenceGraph::compute(p);
        auto init = [&p](exec::Buffers &buf) { initInputs(p, buf); };
        unsigned dims = unsigned(spec.defaultTiles.size());
        perfmodel::CostModel model(p, dims, 32);
        perfmodel::AutotuneOptions opts;
        auto cands = perfmodel::enumerateTileCandidates(
            p, opts.candidates, dims);
        for (const auto &tiles : cands) {
            double ms = perfmodel::evaluateCandidate(
                p, graph, tiles, init, opts.threads,
                opts.targetParallelism);
            samples.push_back(
                perfmodel::ModelSample{model.terms(tiles), ms});
        }
        std::printf("%-12s %zu samples\n", spec.name,
                    cands.size());
    }
    perfmodel::ModelFit zero;
    perfmodel::ModelFit fit = perfmodel::fitModel(samples, zero);
    double err = 0;
    for (const auto &s : samples) {
        double pred = perfmodel::predictMs(s.terms, fit);
        double denom = std::max(s.measuredMs, 1e-9);
        err += std::fabs(pred - s.measuredMs) / denom;
    }
    std::printf("\nfit over %zu samples (mean relative error "
                "%.1f%%):\n",
                samples.size(),
                100.0 * err / double(samples.size()));
    std::printf("    fit.cCompute = %.4f;\n", fit.cCompute);
    std::printf("    fit.cMem = %.4f;\n", fit.cMem);
    std::printf("    fit.cTraffic = %.4f;\n", fit.cTraffic);
    std::printf("    fit.cTile = %.4f;\n", fit.cTile);
    return 0;
}

/** Per-candidate model-vs-measurement dump for one workload --
 *  the tool for diagnosing a ranking miss. */
int
runRank(const char *name)
{
    const driver::WorkloadSpec *spec = driver::findWorkload(name);
    if (!spec) {
        std::fprintf(stderr, "unknown workload: %s\n", name);
        return 2;
    }
    ir::Program p = spec->make(benchParams(spec->name));
    auto graph = deps::DependenceGraph::compute(p);
    auto init = [&p](exec::Buffers &buf) { initInputs(p, buf); };
    unsigned dims = unsigned(spec->defaultTiles.size());
    perfmodel::CostModel model(p, dims, 32);
    perfmodel::AutotuneOptions opts;
    perfmodel::ModelFit fit = perfmodel::defaultModelFit();
    auto cands =
        perfmodel::enumerateTileCandidates(p, opts.candidates, dims);
    struct Row
    {
        std::vector<int64_t> tiles;
        perfmodel::ModelTerms t;
        double score;
        double ms;
    };
    std::vector<Row> rows;
    for (const auto &tiles : cands) {
        Row r;
        r.tiles = tiles;
        r.t = model.terms(tiles);
        r.score = model.score(tiles, fit);
        r.ms = perfmodel::evaluateCandidate(
            p, graph, tiles, init, opts.threads,
            opts.targetParallelism);
        rows.push_back(std::move(r));
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.ms < b.ms; });
    std::printf("%-14s %10s %10s %10s %10s %10s %10s\n", "tiles",
                "measured", "score", "compute", "mem", "traffic",
                "tile");
    for (const auto &r : rows) {
        std::string ts;
        for (size_t i = 0; i < r.tiles.size(); ++i)
            ts += (i ? "x" : "") + std::to_string(r.tiles[i]);
        std::printf("%-14s %10.4f %10.4f %10.4f %10.4f %10.4f "
                    "%10.4f\n",
                    ts.c_str(), r.ms, r.score, r.t.compute, r.t.mem,
                    r.t.traffic, r.t.tile);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool do_fit = false;
    const char *rank = nullptr;
    if (!parseArgs(argc, argv,
                   "bench_autotune [--smoke] [--json] [--fit] "
                   "[--rank <workload>]",
                   args, [&](int &i) {
                       if (!std::strcmp(argv[i], "--fit"))
                           return do_fit = true;
                       if (std::strcmp(argv[i], "--rank") ||
                           i + 1 >= argc)
                           return false;
                       rank = argv[++i];
                       return true;
                   }))
        return 2;
    if (args.smoke)
        return runSmoke();
    if (do_fit)
        return runFit();
    if (rank)
        return runRank(rank);

    const double kMaxMeasuredFrac = 0.25;
    const double kMaxGapPct = 5.0;
    const double kMinGeomeanSpeedup = 4.0;

    Host host = Host::probe();
    std::vector<TuneRow> rows;
    for (const auto &w : driver::workloadRegistry())
        rows.push_back(measureWorkload(w));
    NearMiss nm = measureNearMiss();

    unsigned total = 0, measured = 0;
    double max_gap = 0;
    std::vector<double> speedups;
    for (const auto &r : rows) {
        total += r.total;
        measured += r.guidedMeasured;
        max_gap = std::max(max_gap, r.gapPct());
        speedups.push_back(r.speedup());
    }
    double frac = total ? double(measured) / double(total) : 1.0;
    double geo = geomean(speedups);
    bool all_ok = frac <= kMaxMeasuredFrac &&
                  max_gap <= kMaxGapPct &&
                  geo >= kMinGeomeanSpeedup && nm.ok();

    if (args.json) {
        std::vector<std::string> workloads;
        for (const auto &r : rows)
            workloads.push_back(rowJson(r, kMaxGapPct));
        JsonObject out = benchJson("autotune", host);
        out.raw("ladder", "[8, 16, 32, 64, 128, 256, 512]")
            .raw("workloads", jsonArray(workloads))
            .raw("aggregate",
                 JsonObject()
                     .integer("totalCandidates", total)
                     .integer("guidedMeasured", measured)
                     .num("measuredFrac", frac, "%.4f")
                     .num("geomeanSpeedup", geo, "%.2f")
                     .num("maxQualityGapPct", max_gap, "%.4f")
                     .text())
            .raw("nearMiss",
                 JsonObject()
                     .str("workload", nm.workload)
                     .integer("coldMeasured", nm.coldMeasured)
                     .integer("seededMeasured", nm.seededMeasured)
                     .boolean("seededFromShape", nm.seededFromShape)
                     .boolean("exactWarmStart", nm.exactWarmStart)
                     .boolean("fewerWhenSeeded",
                              nm.seededMeasured < nm.coldMeasured)
                     .text())
            .raw("bounds",
                 JsonObject()
                     .num("maxMeasuredFrac", kMaxMeasuredFrac, "%.2f")
                     .num("maxQualityGapPct", kMaxGapPct, "%.1f")
                     .num("minGeomeanSpeedup", kMinGeomeanSpeedup,
                          "%.1f")
                     .text())
            .boolean("allOk", all_ok);
        std::printf("%s\n", out.text().c_str());
        return all_ok ? 0 : 1;
    }

    host.print();
    std::printf("=== Autotune search: exhaustive oracle vs guided "
                "(default ladder) ===\n");
    printRow("workload",
             {"cands", "measured", "exh ms", "guided ms", "speedup",
              "gap %"},
             10);
    for (const auto &r : rows)
        printRow(r.name,
                 {std::to_string(r.total),
                  std::to_string(r.guidedMeasured),
                  fmt(r.exhaustiveMs, "%.1f"),
                  fmt(r.guidedMs, "%.1f"),
                  fmt(r.speedup(), "%.1fx"),
                  fmt(r.gapPct(), "%.2f")},
                 10);
    printRow("aggregate",
             {std::to_string(total), std::to_string(measured), "",
              "", fmt(geo, "%.1fx"), fmt(max_gap, "%.2f")},
             10);
    std::printf("near-miss (%s): cold measured %u, seeded %u "
                "(shape seed %s), exact re-run %s\n",
                nm.workload.c_str(), nm.coldMeasured,
                nm.seededMeasured, nm.seededFromShape ? "hit" : "MISS",
                nm.exactWarmStart ? "warm-started" : "COLD");
    std::printf("%s\n", all_ok ? "ok" : "FAILED: bounds violated");
    return all_ok ? 0 : 1;
}
