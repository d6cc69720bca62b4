/**
 * @file
 * Presburger hot-path microbenchmarks — the machine-readable perf
 * baseline behind BENCH_presburger.json.
 *
 * Two layers of measurement:
 *
 *  1. Microkernels of the overhauled primitives: row construction
 *     with inline vs forced-heap SmallVec storage, structural row
 *     hashing, hash-grouped simplifyRows deduplication, and raw FM
 *     elimination. Each reports ns/op so regressions in the hot
 *     loops are visible without registry-level noise.
 *
 *  2. The registry A/B sweep: every workload compiled twice in the
 *     same process — once in the baseline configuration
 *     (forced-heap SmallVec rows, op cache off, i.e. the
 *     pre-overhaul Presburger layer) and once optimized (inline
 *     rows, cache on) — comparing wall time, FM work and generated
 *     code. Both configurations run the identical binary; the
 *     baseline is selected purely through the ScopedForceHeap test
 *     hook and CompileContext::setOpCacheEnabled(false), so the
 *     measured delta is exactly the row-storage + memoization work.
 *     The generated C of both sides must be byte-identical.
 *
 * Modes (bench/harness.hh): table, --json, and --smoke — a subset
 * sweep with correctness assertions, < 5 s; the check_perf_smoke
 * ctest runs this and fails on any cache-equivalence mismatch.
 */

#include <memory>

#include "bench/harness.hh"
#include "codegen/cprinter.hh"
#include "driver/compile_context.hh"
#include "driver/registry.hh"
#include "pres/fm.hh"
#include "pres/row_hash.hh"
#include "support/small_vec.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

namespace {

/** One timed compilation (full pipeline, deps included). */
struct PerfMeasurement
{
    double ms = 0;         ///< fastest rep's pipeline wall time
    pres::fm::Counters fm; ///< that rep's context totals
    std::string code;      ///< printCode of the produced AST
};

/** One side of the A/B comparison. */
struct PerfVariant
{
    bool opCache = true;    ///< memoize Presburger operations
    bool inlineRows = true; ///< false forces SmallVec rows to heap
};

/** Compile @p p (a registry workload's program) once per rep with
 *  strategy "ours" and the workload's default tiles; keep the
 *  fastest rep. The program is built by the caller, once, so reps
 *  measure compilation only. */
PerfMeasurement
compileForPerf(const driver::WorkloadSpec &w, const ir::Program &p,
               const PerfVariant &v, int reps)
{
    PerfMeasurement best;
    best.ms = minOfReps(reps, [&](int rep) {
        std::unique_ptr<support::ScopedForceHeap> heap;
        if (!v.inlineRows)
            heap.reset(new support::ScopedForceHeap());
        driver::CompileContext ctx;
        ctx.setOpCacheEnabled(v.opCache);
        driver::PipelineOptions opts;
        opts.strategy = Strategy::Ours;
        opts.tileSizes = w.defaultTiles;
        Timer t;
        auto state = driver::Pipeline(opts).run(p, ctx);
        double ms = t.milliseconds();
        if (rep == 0 || ms < best.ms) {
            best.ms = ms;
            best.fm = ctx.fmCounters();
            best.code = codegen::printCode(p, state.ast);
        }
        return ms;
    });
    return best;
}

/** Baseline vs optimized on one workload. */
struct PerfComparison
{
    std::string name;
    PerfMeasurement baseline;  ///< heap rows + cache off
    PerfMeasurement optimized; ///< inline rows + cache on

    double
    speedup() const
    {
        return optimized.ms > 0 ? baseline.ms / optimized.ms : 0;
    }

    /** Optimized run's cache hit rate in [0, 1]. */
    double
    hitRate() const
    {
        double total = double(optimized.fm.cacheHits) +
                       double(optimized.fm.cacheMisses);
        return total > 0 ? optimized.fm.cacheHits / total : 0;
    }

    /** Byte-identical generated C (the correctness gate). */
    bool identical() const { return baseline.code == optimized.code; }

    std::string
    json() const
    {
        return JsonObject()
            .str("name", name)
            .num("baselineMs", baseline.ms, "%.4f")
            .num("optimizedMs", optimized.ms, "%.4f")
            .num("speedup", speedup(), "%.4f")
            .integer("fmElims", optimized.fm.eliminations)
            .integer("fmRows", optimized.fm.constraintsVisited)
            .integer("cacheHits", optimized.fm.cacheHits)
            .integer("cacheMisses", optimized.fm.cacheMisses)
            .num("cacheHitRate", hitRate(), "%.4f")
            .boolean("identicalCode", identical())
            .text();
    }
};

/** Compare every registry workload, baseline then optimized, in
 *  registry order. Sequential by construction (--jobs 1). */
std::vector<PerfComparison>
sweepRegistryPerf(int reps)
{
    std::vector<PerfComparison> out;
    for (const auto &w : driver::workloadRegistry()) {
        ir::Program p = w.make(w.defaults);
        PerfComparison c;
        c.name = w.name;
        c.baseline = compileForPerf(w, p, {false, false}, reps);
        c.optimized = compileForPerf(w, p, {true, true}, reps);
        out.push_back(std::move(c));
    }
    return out;
}


/** Defeats dead-code elimination of the micro loops. */
volatile uint64_t g_sink = 0;

/** A representative FM system: bounds and couplings over @p cols
 *  columns (last column is the constant), with duplicated and
 *  parallel rows so simplifyRows has real work. */
std::vector<pres::Constraint>
makeSystem(unsigned cols, unsigned copies)
{
    std::vector<pres::Constraint> rows;
    for (unsigned rep = 0; rep < copies; ++rep) {
        for (unsigned c = 0; c + 1 < cols; ++c) {
            pres::CoeffRow lo(cols, 0), hi(cols, 0);
            lo[c] = 1; // x_c >= 0
            hi[c] = -1;
            hi[cols - 1] = 255 + int64_t(rep); // x_c <= 255 + rep
            rows.emplace_back(false, std::move(lo));
            rows.emplace_back(false, std::move(hi));
            if (c + 2 < cols) {
                pres::CoeffRow link(cols, 0);
                link[c] = 1;
                link[c + 1] = -1;
                link[cols - 1] = 2; // x_c - x_{c+1} + 2 >= 0
                rows.emplace_back(false, std::move(link));
            }
        }
    }
    return rows;
}

struct Micro
{
    const char *name;
    double nsPerOp;
    uint64_t iters;
};

/** Construct + destroy @p iters constraint rows of width 12. */
Micro
microRowConstruct(bool inline_rows, uint64_t iters)
{
    std::unique_ptr<support::ScopedForceHeap> heap;
    if (!inline_rows)
        heap.reset(new support::ScopedForceHeap());
    Timer t;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        pres::CoeffRow row(12, int64_t(i));
        row[11] = 1;
        acc += uint64_t(row[0] + row[11]);
    }
    g_sink = g_sink + acc;
    return {inline_rows ? "row_construct_inline"
                        : "row_construct_heap",
            t.milliseconds() * 1e6 / double(iters), iters};
}

/** Structural hash of one 12-wide row, @p iters times. */
Micro
microRowHash(uint64_t iters)
{
    pres::Constraint c(false,
                       {3, -1, 0, 7, 0, 0, -2, 1, 0, 0, 5, 255});
    Timer t;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        c.coeffs[0] = int64_t(i & 0xff);
        acc += pres::hashRow(c);
    }
    g_sink = g_sink + acc;
    return {"row_hash", t.milliseconds() * 1e6 / double(iters),
            iters};
}

/** Hash-grouped dedup: simplifyRows on a system with @p copies
 *  duplicates of every row. */
Micro
microSimplify(uint64_t iters)
{
    auto base = makeSystem(8, 4);
    pres::fm::PresCtx ctx;
    Timer t;
    for (uint64_t i = 0; i < iters; ++i) {
        auto rows = base;
        bool feasible = pres::fm::simplifyRows(ctx, rows);
        g_sink = g_sink + (feasible ? rows.size() : 0);
    }
    return {"simplify_dedup",
            t.milliseconds() * 1e6 / double(iters), iters};
}

/** Raw FM projection: eliminate every inner column of the system. */
Micro
microEliminate(uint64_t iters)
{
    auto base = makeSystem(8, 1);
    pres::fm::PresCtx ctx;
    Timer t;
    for (uint64_t i = 0; i < iters; ++i) {
        auto rows = base;
        bool exact = true;
        for (unsigned col = 6; col-- > 1;)
            if (!pres::fm::eliminateCol(ctx, rows, col, exact))
                break;
        g_sink = g_sink + rows.size() + (exact ? 1 : 0);
    }
    return {"fm_eliminate",
            t.milliseconds() * 1e6 / double(iters), iters};
}

std::vector<Micro>
runMicro(uint64_t scale)
{
    return {
        microRowConstruct(true, 200000 * scale),
        microRowConstruct(false, 200000 * scale),
        microRowHash(200000 * scale),
        microSimplify(500 * scale),
        microEliminate(2000 * scale),
    };
}

/** Smoke: tiny registry subset, every storage x cache combination
 *  must generate byte-identical C. Exit 1 on any mismatch. */
int
runSmoke()
{
    const char *subset[] = {"conv2d", "unsharp", "2mm"};
    const PerfVariant variants[] = {
        {true, true}, {true, false}, {false, true}, {false, false}};
    int failures = 0;
    for (const char *name : subset) {
        const driver::WorkloadSpec *w = driver::findWorkload(name);
        if (!w) {
            std::printf("FAIL %s: not in registry\n", name);
            ++failures;
            continue;
        }
        ir::Program p = w->make(w->defaults);
        std::string reference;
        bool ok = true;
        for (const PerfVariant &v : variants) {
            PerfMeasurement m = compileForPerf(*w, p, v, 1);
            if (reference.empty())
                reference = m.code;
            else if (m.code != reference)
                ok = false;
        }
        std::printf("%-10s cache on/off x rows inline/heap: %s\n",
                    name, ok ? "byte-identical" : "MISMATCH");
        failures += ok ? 0 : 1;
    }
    for (const Micro &m : runMicro(1))
        printRow(m.name, {fmt(m.nsPerOp, "%.1f"), "ns/op"}, 12);
    if (failures) {
        std::printf("FAILED: %d cache-correctness mismatches\n",
                    failures);
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
    if (!parseArgs(argc, argv, "bench_presburger [--smoke] [--json]",
                   args))
        return 2;
    if (args.smoke)
        return runSmoke();

    Host host = Host::probe();
    std::vector<Micro> micro = runMicro(4);
    std::vector<PerfComparison> sweep = sweepRegistryPerf(3);
    bool all_identical = true;
    std::vector<double> speedups;
    for (const auto &c : sweep) {
        all_identical = all_identical && c.identical();
        speedups.push_back(c.speedup());
    }
    double geo = geomean(speedups);

    if (args.json) {
        std::vector<std::string> micro_json, workloads;
        for (const Micro &m : micro)
            micro_json.push_back(JsonObject()
                                     .str("name", m.name)
                                     .num("nsPerOp", m.nsPerOp, "%.2f")
                                     .integer("iters", m.iters)
                                     .text());
        for (const auto &c : sweep)
            workloads.push_back(c.json());
        JsonObject out = benchJson("presburger", host);
        out.integer("jobs", 1)
            .raw("micro", jsonArray(micro_json))
            .raw("workloads", jsonArray(workloads))
            .num("geomeanSpeedup", geo, "%.4f")
            .boolean("allIdentical", all_identical);
        std::printf("%s\n", out.text().c_str());
        return all_identical ? 0 : 1;
    }

    host.print();
    std::printf("=== Presburger microkernels ===\n");
    for (const Micro &m : micro)
        printRow(m.name, {fmt(m.nsPerOp, "%.1f"), "ns/op"}, 12);
    std::printf("\n=== Registry A/B (baseline = heap rows + cache "
                "off; best of 3) ===\n");
    printRow("workload",
             {"base ms", "opt ms", "speedup", "hit rate", "code"},
             10);
    for (const auto &c : sweep)
        printRow(c.name,
                 {fmt(c.baseline.ms), fmt(c.optimized.ms),
                  fmt(c.speedup(), "%.2fx"),
                  fmt(c.hitRate() * 100, "%.1f%%"),
                  c.identical() ? "identical" : "MISMATCH"},
                 10);
    printRow("geomean", {"", "", fmt(geo, "%.2fx")}, 10);
    return all_identical ? 0 : 1;
}
