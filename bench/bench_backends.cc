/**
 * @file
 * Backend-registry benchmark — the machine-readable baseline behind
 * BENCH_backends.json, and the measurement half of the "one
 * numerical contract" story.
 *
 * Every registry workload is compiled once with the paper's
 * composition strategy, then executed on every registered backend
 * (exec::backendRegistry(): tier x parallel strategy). Each
 * backend row records latency (best of reps) *and* numerical
 * deviation against the interpreter reference — max absolute
 * difference and max ULP distance over every buffer — plus whether
 * the run honored the backend's declared contract (today every
 * backend declares bit-identity; the deviation columns exist so a
 * future reassociating backend lands with its bound measured, not
 * asserted). The tier speedups over the interpreter — bytecode
 * (`geomeanSpeedup`) and sequential native (`nativeGeomeanSpeedup`)
 * — are geomeans over these rows.
 *
 * Native backends need a working C toolchain and fork cc once per
 * (workload, team shape); they are skipped when no toolchain is
 * found, never silently substituted.
 *
 * Modes (bench/harness.hh): table, --json, and --smoke — a
 * five-point subset at tiny sizes, in-process backends only, same
 * contract assertions; the check_backends_smoke ctest runs this.
 */

#include <memory>

#include "bench/harness.hh"
#include "driver/registry.hh"
#include "exec/kernel_cache.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

namespace {

/** Stable ratios, with the interpreter leg in fractions of a
 *  second. */
driver::WorkloadParams
benchParams(const std::string &name)
{
    if (name == "equake")
        return {1024, 16};
    if (name == "convbn")
        return {8, 16};
    if (name == "2mm" || name == "covariance")
        return {96, 96};
    if (name == "gemver")
        return {256, 256};
    if (name == "unsharp")
        return {64, 128};
    return {128, 128};
}

/** One backend's measurement on one workload. */
struct BackendPoint
{
    std::string backend;
    double ms = -1; ///< < 0: backend unavailable here
    exec::BufferDeviation dev;
    bool withinContract = true;
    std::string degraded; ///< first fallback reason, if any
};

struct WorkloadRow
{
    std::string name;
    std::vector<BackendPoint> points;

    bool
    allWithinContract() const
    {
        for (const auto &pt : points)
            if (!pt.withinContract)
                return false;
        return true;
    }

    /** Milliseconds of @p backend (< 0 when it did not run). */
    double
    msOf(const char *backend) const
    {
        for (const auto &pt : points)
            if (pt.backend == backend)
                return pt.ms;
        return -1;
    }

    /** Interpreter time over @p backend's (0 when either is
     *  missing). */
    double
    speedupOf(const char *backend) const
    {
        double interp = msOf("interp"), ms = msOf(backend);
        return interp > 0 && ms > 0 ? interp / ms : 0;
    }
};

WorkloadRow
measureWorkload(const driver::WorkloadSpec &spec,
                const driver::WorkloadParams &params, int reps,
                bool with_native)
{
    WorkloadRow row;
    row.name = spec.name;

    auto program = std::make_shared<const ir::Program>(
        spec.make(params));
    driver::PipelineOptions popts;
    popts.strategy = Strategy::Ours;
    popts.tileSizes = spec.defaultTiles;
    auto state = driver::Pipeline(popts).run(*program);

    // One image shared by every backend: the bytecode compiles
    // once, and native team shapes memoize per backend slot.
    auto image = std::make_shared<exec::KernelImage>();
    image->program = program;
    image->ast = state.ast;
    image->genBands = std::move(state.genBands);
    image->tileBands = std::move(state.tileBands);
    image->bytecode =
        exec::BytecodeKernel::compile(*program, image->ast);

    // Reference: the interpreter, the root of the contract.
    exec::Buffers ref = freshBuffers(*program);
    exec::ExecOptions iopts;
    iopts.tier = exec::Tier::Interp;
    exec::execute(*image, ref, iopts);

    for (const auto &b : exec::backendRegistry()) {
        BackendPoint pt;
        pt.backend = b.name;
        if (b.tier == exec::Tier::Native && !with_native) {
            row.points.push_back(pt);
            continue;
        }
        exec::ExecOptions eopts = exec::backendOptions(b);
        eopts.tileBands = &image->tileBands;

        // The first rep doubles as the deviation measurement (native
        // backends pay their cc fork there, outside the timing).
        pt.ms = minOfReps(reps, [&](int rep) {
            exec::Buffers buf = freshBuffers(*program);
            exec::ExecResult r = exec::execute(*image, buf, eopts);
            if (rep == 0) {
                pt.dev = exec::bufferDeviation(*program, ref, buf);
                pt.withinContract =
                    b.bitIdentical ? pt.dev.bitIdentical
                                   : pt.dev.maxAbs <= b.maxAbsResidual;
                pt.degraded = !r.fallbackReason.empty()
                                  ? r.fallbackReason
                                  : r.parFallbackReason;
            }
            return r.stats.seconds * 1e3;
        });
        row.points.push_back(pt);
    }
    return row;
}

std::string
pointJson(const BackendPoint &pt)
{
    JsonObject o;
    o.str("backend", pt.backend);
    if (pt.ms < 0)
        return o.boolean("available", false).text();
    o.num("ms", pt.ms, "%.4f")
        .num("maxAbsDeviation", pt.dev.maxAbs, "%.17g")
        .integer("maxUlpDeviation", pt.dev.maxUlp)
        .boolean("identical", pt.dev.bitIdentical)
        .boolean("withinContract", pt.withinContract);
    if (!pt.degraded.empty())
        o.str("degraded", pt.degraded);
    return o.text();
}

/** Smoke: small workloads, in-process backends only (native forks
 *  a compiler per team shape). */
int
runSmoke()
{
    struct
    {
        const char *name;
        driver::WorkloadParams params;
    } subset[] = {
        {"harris", {24, 24}}, {"2mm", {24, 24}},
        {"conv2d", {24, 24}}, {"unsharp", {8, 64}},
        {"2mm", {32, 32}},
    };
    int failures = 0;
    for (const auto &s : subset) {
        const driver::WorkloadSpec *w = driver::findWorkload(s.name);
        if (!w) {
            std::printf("FAIL %s: not in registry\n", s.name);
            ++failures;
            continue;
        }
        WorkloadRow row = measureWorkload(*w, s.params, 1, false);
        for (const auto &pt : row.points) {
            if (pt.ms < 0)
                continue; // native skipped by design here
            if (!pt.withinContract) {
                std::printf("FAIL %s/%s: outside contract "
                            "(maxUlp %llu)\n",
                            row.name.c_str(), pt.backend.c_str(),
                            (unsigned long long)pt.dev.maxUlp);
                ++failures;
            }
        }
        std::printf("%-10s %3lldx%-4lld in-process backends: %s\n",
                    row.name.c_str(), (long long)s.params.rows,
                    (long long)s.params.cols,
                    row.allWithinContract() ? "within contract"
                                            : "CONTRACT VIOLATION");
    }
    if (failures) {
        std::printf("FAILED: %d contract violations\n", failures);
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
    if (!parseArgs(argc, argv, "bench_backends [--smoke] [--json]",
                   args))
        return 2;
    if (args.smoke)
        return runSmoke();

    const int reps = 3;
    Host host = Host::probe();
    std::vector<WorkloadRow> rows;
    for (const auto &w : driver::workloadRegistry())
        rows.push_back(measureWorkload(w, benchParams(w.name), reps,
                                       host.nativeToolchain));

    bool all_ok = true;
    std::vector<double> bytecode_x, native_x;
    for (const auto &r : rows) {
        all_ok = all_ok && r.allWithinContract();
        bytecode_x.push_back(r.speedupOf("bytecode"));
        native_x.push_back(r.speedupOf("native"));
    }
    double geo = geomean(bytecode_x), ngeo = geomean(native_x);

    if (args.json) {
        JsonObject out = benchJson("backends", host);
        out.str("strategy", "ours").integer("reps", reps);
        std::vector<std::string> workloads;
        for (const auto &r : rows) {
            std::vector<std::string> points;
            for (const auto &pt : r.points)
                points.push_back(pointJson(pt));
            workloads.push_back(JsonObject()
                                    .str("name", r.name)
                                    .raw("backends", jsonArray(points))
                                    .text());
        }
        out.raw("workloads", jsonArray(workloads))
            .num("geomeanSpeedup", geo, "%.4f");
        if (host.nativeToolchain)
            out.num("nativeGeomeanSpeedup", ngeo, "%.4f");
        out.boolean("allWithinContract", all_ok);
        std::printf("%s\n", out.text().c_str());
        return all_ok ? 0 : 1;
    }

    host.print();
    std::printf("=== Backend registry (strategy ours, best of %d) "
                "===\n",
                reps);
    if (host.singleCore)
        std::printf("note: single-core machine; parallel-backend "
                    "latencies are overhead measurements, not "
                    "speedups\n");
    for (const auto &r : rows) {
        std::printf("%s\n", r.name.c_str());
        printRow("  backend",
                 {"ms", "maxAbs", "maxUlp", "contract"}, 11);
        for (const auto &pt : r.points) {
            if (pt.ms < 0) {
                printRow("  " + pt.backend,
                         {"-", "-", "-", "skipped"}, 11);
                continue;
            }
            printRow("  " + pt.backend,
                     {fmt(pt.ms), fmt(pt.dev.maxAbs, "%.2g"),
                      std::to_string(pt.dev.maxUlp),
                      pt.withinContract ? "ok" : "VIOLATION"},
                     11);
        }
    }
    std::printf("geomean over interp: bytecode %s, native %s\n",
                fmt(geo, "%.2fx").c_str(),
                host.nativeToolchain ? fmt(ngeo, "%.2fx").c_str()
                                     : "-");
    return all_ok ? 0 : 1;
}
