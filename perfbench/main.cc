/**
 * @file
 * pfbench: the PolyFuse benchmark. One workload per invocation:
 *
 *   pfbench --workload <compile_cold|exec_fused|exec_unfused|serve_native>
 *           --seed N --seconds S --trace 0|1
 *           [--work-dir DIR] [--source-rev REV] [--corrupt-output]
 *
 * --trace 0 runs the workload untraced and reports the end-to-end
 * metrics. --trace 1 runs the named workload with every other timed
 * operation traced (the tracing overhead), plus a short fully traced
 * pass of each other workload, so every per-layer metric is measured
 * on the workload that exercises it; the spans are written as Chrome
 * trace-event JSON into the work directory. The last line of standard
 * output is the JSON result; the exit code is nonzero when any
 * operation failed or any output was wrong. --corrupt-output perturbs
 * the first checked output to show that the check catches it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sched.h>
#include <unistd.h>

#include "exec/native.hh"
#include "pfbench.hh"
#include "support/json.hh"

#ifndef PFBENCH_BUILD_TYPE
#define PFBENCH_BUILD_TYPE "unknown"
#endif

using namespace pfbench;

namespace {

const std::vector<std::string> kWorkloads = {
    "compile_cold", "exec_fused", "exec_unfused", "serve_native"};

PassResult
runPass(const std::string &workload, const RunConfig &cfg, Recorder &rec)
{
    if (workload == "compile_cold")
        return runCompileCold(cfg, rec);
    if (workload == "exec_fused")
        return runExec(cfg, rec, true);
    if (workload == "exec_unfused")
        return runExec(cfg, rec, false);
    return runServeNative(cfg, rec);
}

std::string
firstLine(const std::string &cmd)
{
    std::string line;
    if (FILE *f = popen(cmd.c_str(), "r")) {
        char buf[512];
        if (fgets(buf, sizeof(buf), f))
            line = buf;
        pclose(f);
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    return line;
}

std::string
readTrimmed(const std::string &path)
{
    std::ifstream in(path);
    std::string s;
    std::getline(in, s);
    return s;
}

/** Size of the data/unified cache of @p level on cpu0 ("" unknown). */
std::string
cacheSize(int level)
{
    for (int i = 0; i < 8; ++i) {
        std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                          std::to_string(i) + "/";
        if (readTrimmed(dir + "level") == std::to_string(level) &&
            readTrimmed(dir + "type") != "Instruction")
            return readTrimmed(dir + "size");
    }
    return "";
}

/** The host block: everything needed to tell a 1-core result from a
 *  4-core one, as one JSON object. */
std::string
hostJson(const std::string &source_rev)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int affinity = 0;
    std::string mask;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        affinity = CPU_COUNT(&set);
        unsigned nibble = 0;
        int top = 0;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                top = c;
        for (int c = top - top % 4; c >= 0; c -= 4) {
            nibble = 0;
            for (int b = 0; b < 4; ++b)
                if (CPU_ISSET(c + b, &set))
                    nibble |= 1u << b;
            mask += "0123456789abcdef"[nibble];
        }
    }
    std::string model;
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);)
        if (line.rfind("model name", 0) == 0) {
            model = line.substr(line.find(':') + 2);
            break;
        }
    std::ostringstream o;
    o << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"affinity_cpus\": " << affinity << ", \"affinity_mask\": \""
      << mask << "\", \"cpu_model\": \"" << json::escape(model)
      << "\", \"l1d\": \"" << json::escape(cacheSize(1))
      << "\", \"l2\": \"" << json::escape(cacheSize(2))
      << "\", \"cc\": \"" << json::escape(firstLine("cc --version 2>&1"))
      << "\", \"build_type\": \"" << PFBENCH_BUILD_TYPE
      << "\", \"source_rev\": \"" << json::escape(source_rev)
      << "\", \"native_parallel_toolchain\": \""
      << exec::nativeParModeName(exec::NativeKernel::parallelToolchain())
      << "\"}";
    return o.str();
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printMetrics(const char *title, const Metrics &metrics)
{
    std::printf("%s\n", title);
    for (const auto &kv : metrics)
        std::printf("  %-34s %16.6f %s\n", kv.first.c_str(),
                    kv.second.value, kv.second.unit.c_str());
}

/**
 * Scale the end-to-end times to a host whose probe takes
 * kReferenceProbeMs (rates inversely), keeping the measured values in
 * @p report as raw.<name>, next to the probe itself.
 */
void
normalize(Metrics &metrics, double probe_ms, Metrics &report)
{
    report["host.probe_ms"] = {probe_ms, "ms"};
    if (!(probe_ms > 0))
        return;
    double scale = kReferenceProbeMs / probe_ms;
    for (auto &kv : metrics) {
        report["raw." + kv.first] = kv.second;
        if (kv.second.unit == "ms" || kv.second.unit == "s")
            kv.second.value *= scale;
        else if (kv.second.unit == "1/s")
            kv.second.value /= scale;
    }
}

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "pfbench: %s\nusage: pfbench --workload "
                 "<compile_cold|exec_fused|exec_unfused|serve_native> "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--source-rev REV] [--corrupt-output]\n",
                 why.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, workDir = ".", sourceRev = "unknown";
    RunConfig cfg;
    int trace = -1;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool hasValue = i + 1 < argc;
        if (a == "--corrupt-output") {
            cfg.corrupt = true;
        } else if (!hasValue) {
            return usage("missing value for " + a);
        } else if (a == "--workload") {
            workload = argv[++i];
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds") {
            cfg.seconds = std::atof(argv[++i]);
            haveSeconds = true;
        } else if (a == "--trace") {
            trace = std::atoi(argv[++i]);
        } else if (a == "--work-dir") {
            workDir = argv[++i];
        } else if (a == "--source-rev") {
            sourceRev = argv[++i];
        } else {
            return usage("unknown argument " + a);
        }
    }
    bool known = false;
    for (const auto &w : kWorkloads)
        known = known || w == workload;
    if (!known)
        return usage("unknown workload '" + workload + "'");
    if (!haveSeed || !haveSeconds || !(cfg.seconds > 0))
        return usage("--seed and a positive --seconds are required");
    if (trace != 0 && trace != 1)
        return usage("--trace must be 0 or 1");
    cfg.workDir = workDir;

    try {
        std::string host = hostJson(sourceRev);
        std::printf("host %s\n", host.c_str());
        std::printf("workload %s, seed %llu, seconds %g, trace %d\n",
                    workload.c_str(), (unsigned long long)cfg.seed,
                    cfg.seconds, trace);

        Metrics metrics;
        Tally tally;
        if (trace == 0) {
            Recorder rec(workload);
            PassResult r = runPass(workload, cfg, rec);
            metrics = r.endToEnd;
            metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
            normalize(metrics, median(r.probeMs), r.report);
            printMetrics("end-to-end:", metrics);
            printMetrics("workload metrics:", r.report);
            for (const auto &n : r.notes)
                std::printf("note: %s\n", n.c_str());
            tally = r.tally;
        } else {
            // Every per-layer metric comes from the workload that
            // exercises it; the named workload runs full length with
            // alternate operations traced, the others run short.
            std::map<std::string, std::unique_ptr<Recorder>> recs;
            std::vector<std::pair<double, double>> pairs;
            double probe = 0;
            for (const auto &w : kWorkloads) {
                RunConfig pc = cfg;
                if (w != workload) {
                    pc.trace = TraceMode::All;
                    pc.seconds = std::max(1.0, cfg.seconds / 5);
                    pc.setupReps = 1;
                    pc.corrupt = false;
                } else {
                    pc.trace = TraceMode::Alternate;
                }
                recs[w] = std::make_unique<Recorder>(w);
                PassResult r = runPass(w, pc, *recs[w]);
                tally.merge(r.tally);
                if (w == workload) {
                    pairs = r.overheadPairs;
                    probe = median(r.probeMs);
                }
                for (const auto &n : r.notes)
                    std::printf("note (%s): %s\n", w.c_str(), n.c_str());
            }
            LayerSources src;
            src.compile = recs["compile_cold"].get();
            src.fused = recs["exec_fused"].get();
            src.unfused = recs["exec_unfused"].get();
            src.serve = recs["serve_native"].get();
            if (workload == "exec_fused" || workload == "exec_unfused")
                src.exec = {recs[workload].get()};
            else
                src.exec = {src.fused, src.unfused};
            metrics = layerMetrics(src);
            std::vector<double> ratios;
            for (const auto &p : pairs)
                if (p.first > 0 && p.second > 0)
                    ratios.push_back(p.first / p.second);
            metrics["host.probe_ms"] = {probe, "ms"};
            metrics["trace.overhead_pct"] = {
                ratios.empty() ? 0 : (geomean(ratios) - 1) * 100, "%"};
            printMetrics("per-layer:", metrics);

            std::string path = workDir + "/trace-" + workload + "-seed" +
                               std::to_string(cfg.seed) + ".json";
            std::vector<const Recorder *> all;
            for (const auto &w : kWorkloads)
                all.push_back(recs[w].get());
            if (writeChromeTrace(path, all, host))
                std::printf("trace written to %s\n", path.c_str());
            else
                std::fprintf(stderr, "pfbench: cannot write %s\n",
                             path.c_str());
        }

        double errorRate = tally.attempted()
                               ? double(tally.failed()) /
                                     double(tally.attempted())
                               : 1.0;
        std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
                    errorRate, (unsigned long long)tally.failed(),
                    (unsigned long long)tally.attempted());
        for (const auto &why : tally.reasons())
            std::printf("FAILED: %s\n", why.c_str());

        bool correct = tally.failed() == 0 && tally.attempted() > 0;
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(tally.attempted()) +
               ", \"failed\": " + std::to_string(tally.failed()) +
               ", \"metrics\": {";
        bool first = true;
        for (const auto &kv : metrics) {
            out += first ? "" : ", ";
            first = false;
            out += "\"" + json::escape(kv.first) + "\": {\"value\": " +
                   number(kv.second.value) + ", \"unit\": \"" +
                   json::escape(kv.second.unit) + "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pfbench: %s\n", e.what());
        return 1;
    }
}
