/**
 * @file
 * Backend-registry benchmark — the machine-readable baseline behind
 * BENCH_backends.json, and the measurement half of the "one
 * numerical contract" story (ISSUE 9).
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
 * asserted).
 *
 * Native backends need a working C toolchain and fork cc once per
 * (workload, team shape); they are skipped when no toolchain is
 * found, never silently substituted.
 *
 * Modes:
 *   (none)    full sweep, aligned table on stdout
 *   --json    full sweep, one JSON object on stdout
 *   --smoke   two-workload subset at tiny sizes, in-process
 *             backends only, same contract assertions, well under
 *             0.5 s; the check_backends_smoke ctest runs this
 */

#include <cmath>
#include <cstring>
#include <memory>

#ifdef __linux__
#include <sched.h>
#endif

#include "bench/common.hh"
#include "driver/registry.hh"
#include "exec/kernel_cache.hh"
#include "exec/native.hh"
#include "support/thread_pool.hh"
#include "workloads/equake.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

namespace {

/** Sizes tuned like bench_runtime's: stable ratios, interp leg in
 *  fractions of a second. */
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

void
initInputs(const ir::Program &p, exec::Buffers &buf)
{
    if (p.name() == "equake") {
        workloads::initEquakeInputs(p, buf, 11);
        return;
    }
    defaultInit(p, buf);
}

/** Threads this process may actually run on: the affinity mask when
 *  the kernel exposes one (a pinned container reports every core
 *  via hardware_concurrency but schedules on one). */
unsigned
affinityThreads()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return unsigned(n);
    }
#endif
    return ThreadPool::defaultThreads();
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
    exec::Buffers ref(*program);
    initInputs(*program, ref);
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

        // Warmup run doubles as the deviation measurement (native
        // backends pay their cc fork here, outside the timing).
        exec::Buffers buf(*program);
        initInputs(*program, buf);
        exec::ExecResult r = exec::execute(*image, buf, eopts);
        pt.dev = exec::bufferDeviation(*program, ref, buf);
        pt.withinContract =
            b.bitIdentical ? pt.dev.bitIdentical
                           : pt.dev.maxAbs <= b.maxAbsResidual;
        if (!r.fallbackReason.empty())
            pt.degraded = r.fallbackReason;
        else if (!r.parFallbackReason.empty())
            pt.degraded = r.parFallbackReason;

        pt.ms = r.stats.seconds * 1e3;
        for (int rep = 1; rep < reps; ++rep) {
            exec::Buffers again(*program);
            initInputs(*program, again);
            exec::ExecResult rr = exec::execute(*image, again, eopts);
            pt.ms = std::min(pt.ms, rr.stats.seconds * 1e3);
        }
        row.points.push_back(pt);
    }
    return row;
}

std::string
pointJson(const BackendPoint &pt)
{
    std::string out = "{\"backend\": \"" + pt.backend + "\"";
    if (pt.ms < 0)
        return out + ", \"available\": false}";
    out += ", \"ms\": " + fmt(pt.ms, "%.4f");
    out += ", \"maxAbsDeviation\": " + fmt(pt.dev.maxAbs, "%.17g");
    out += ", \"maxUlpDeviation\": " +
           std::to_string(pt.dev.maxUlp);
    out += ", \"identical\": ";
    out += pt.dev.bitIdentical ? "true" : "false";
    out += ", \"withinContract\": ";
    out += pt.withinContract ? "true" : "false";
    if (!pt.degraded.empty())
        out += ", \"degraded\": \"" + pt.degraded + "\"";
    out += "}";
    return out;
}

/** Smoke: two workloads, in-process backends only (native forks a
 *  compiler per team shape; the ctest budget is 0.5 s). */
int
runSmoke()
{
    struct
    {
        const char *name;
        driver::WorkloadParams params;
    } subset[] = {
        {"harris", {24, 24}},
        {"2mm", {24, 24}},
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
        std::printf("%-10s in-process backends: %s\n",
                    row.name.c_str(),
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
    bool smoke = false, json = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else if (!std::strcmp(argv[i], "--json"))
            json = true;
        else {
            std::fprintf(
                stderr,
                "usage: bench_backends [--smoke] [--json]\n");
            return 2;
        }
    }
    if (smoke)
        return runSmoke();

    const int reps = 3;
    bool with_native = exec::NativeKernel::toolchainAvailable();
    unsigned hw = ThreadPool::defaultThreads();
    unsigned aff = affinityThreads();
    bool single_core = hw <= 1 || aff <= 1;

    std::vector<WorkloadRow> rows;
    for (const auto &w : driver::workloadRegistry())
        rows.push_back(measureWorkload(w, benchParams(w.name), reps,
                                       with_native));

    bool all_ok = true;
    for (const auto &r : rows)
        all_ok = all_ok && r.allWithinContract();

    if (json) {
        std::string out = "{\"bench\": \"backends\", ";
        out += "\"strategy\": \"ours\", \"reps\": " +
               std::to_string(reps);
        out += ", \"hardwareThreads\": " + std::to_string(hw);
        out += ", \"affinityThreads\": " + std::to_string(aff);
        // Parallel-backend latencies on a single-core box measure
        // scheduling overhead, not speedup: the flag tells every
        // consumer not to read them as one.
        out += ", \"singleCore\": ";
        out += single_core ? "true" : "false";
        out += ", \"nativeToolchain\": ";
        out += with_native ? "true" : "false";
        out += ", \"workloads\": [";
        for (size_t i = 0; i < rows.size(); ++i) {
            if (i)
                out += ", ";
            out += "{\"name\": \"" + rows[i].name +
                   "\", \"backends\": [";
            for (size_t j = 0; j < rows[i].points.size(); ++j) {
                if (j)
                    out += ", ";
                out += pointJson(rows[i].points[j]);
            }
            out += "]}";
        }
        out += "], \"allWithinContract\": ";
        out += all_ok ? "true" : "false";
        out += "}";
        std::printf("%s\n", out.c_str());
        return all_ok ? 0 : 1;
    }

    std::printf("=== Backend registry (strategy ours, best of %d, "
                "%u hardware threads%s) ===\n",
                reps, hw, single_core ? ", SINGLE CORE" : "");
    if (single_core)
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
    return all_ok ? 0 : 1;
}
