/**
 * @file
 * The one harness of the benches that write BENCH_*.json: mode
 * parsing, the host block, input filling, the bit-identity check,
 * min-of-reps timing and a small JSON object writer.
 *
 * Every JSON bench runs in one of three modes:
 *
 *   (none)    full sweep, aligned table on stdout
 *   --json    full sweep, one JSON object on stdout
 *   --smoke   a small subset with the same correctness gates; a
 *             check_*_smoke ctest runs it
 *
 * Each JSON object opens with `"bench"` and the host block, so every
 * committed number names the machine it was measured on.
 */

#ifndef POLYFUSE_BENCH_HARNESS_HH
#define POLYFUSE_BENCH_HARNESS_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "bench/common.hh"
#include "exec/engine.hh"
#include "exec/native.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"
#include "workloads/equake.hh"

namespace polyfuse {
namespace bench {

/** The modes a bench was asked for. */
struct Args
{
    bool smoke = false;
    bool json = false;
};

/**
 * Parse `--smoke` and `--json`. A bench with flags of its own passes
 * @p extra, called with the index of any other argument; it returns
 * true when it consumed the argument (advancing the index past any
 * value). Any argument left over prints `usage: <usage>` and yields
 * false: the caller exits 2.
 */
inline bool
parseArgs(int argc, char **argv, const char *usage, Args &args,
          const std::function<bool(int &)> &extra = nullptr)
{
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke"))
            args.smoke = true;
        else if (!std::strcmp(argv[i], "--json"))
            args.json = true;
        else if (!extra || !extra(i)) {
            std::fprintf(stderr, "usage: %s\n", usage);
            return false;
        }
    }
    return true;
}

/** Writes one JSON object on one line, `{"k": v, ...}`. */
class JsonObject
{
  public:
    /** A string value, escaped. */
    JsonObject &
    str(const char *key, const std::string &value)
    {
        return raw(key, "\"" + json::escape(value) + "\"");
    }

    /** A number printed with the printf format @p f. */
    JsonObject &
    num(const char *key, double value, const char *f)
    {
        return raw(key, fmt(value, f));
    }

    JsonObject &
    integer(const char *key, uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    JsonObject &
    boolean(const char *key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    /** An already-serialized value: a nested object or array. */
    JsonObject &
    raw(const char *key, const std::string &value)
    {
        out_ += out_.size() > 1 ? ", \"" : "\"";
        out_ += key;
        out_ += "\": ";
        out_ += value;
        return *this;
    }

    std::string text() const { return out_ + "}"; }

  private:
    std::string out_ = "{";
};

/** `[a, b, ...]` of already-serialized values. */
inline std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ", ";
        out += items[i];
    }
    return out + "]";
}

/** First line of @p cmd's output (empty when it fails). */
inline std::string
firstLine(const std::string &cmd)
{
    std::string out;
    if (FILE *f = popen(cmd.c_str(), "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof(buf), f))
            out = buf;
        pclose(f);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out;
}

/** The machine a measurement was taken on. */
struct Host
{
    unsigned hardwareThreads = 1;
    /** Threads this process may run on: the affinity mask when the
     *  kernel exposes one (a pinned container reports every core
     *  via hardware_concurrency but schedules on fewer). */
    unsigned affinityThreads = 1;
    /** Parallel latencies on one core measure scheduling overhead,
     *  not speedup: consumers must not read them as one. */
    bool singleCore = true;
    bool nativeToolchain = false;
    std::string cpuModel;
    std::string ccVersion;
    std::string buildType;

    static Host
    probe()
    {
        Host h;
        h.hardwareThreads = ThreadPool::defaultThreads();
        h.affinityThreads = h.hardwareThreads;
#ifdef __linux__
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0 &&
            CPU_COUNT(&set) > 0)
            h.affinityThreads = unsigned(CPU_COUNT(&set));
#endif
        h.singleCore = h.hardwareThreads <= 1 || h.affinityThreads <= 1;
        h.nativeToolchain = exec::NativeKernel::toolchainAvailable();
        std::ifstream cpuinfo("/proc/cpuinfo");
        for (std::string line; std::getline(cpuinfo, line);)
            if (line.rfind("model name", 0) == 0) {
                h.cpuModel = line.substr(line.find(':') + 2);
                break;
            }
        h.ccVersion = firstLine("cc --version 2>/dev/null");
        h.buildType = POLYFUSE_BUILD_TYPE; // bench/CMakeLists.txt
        return h;
    }

    /** The host block as one line of a table report. */
    void
    print() const
    {
        std::printf("host: %u hardware threads (%u in affinity "
                    "mask%s), cpu \"%s\", cc \"%s\"%s, %s build\n",
                    hardwareThreads, affinityThreads,
                    singleCore ? ", SINGLE CORE" : "",
                    cpuModel.c_str(), ccVersion.c_str(),
                    nativeToolchain ? "" : " (no native toolchain)",
                    buildType.c_str());
    }
};

/** A JSON bench report: `"bench"`, then the host block. */
inline JsonObject
benchJson(const char *bench, const Host &host)
{
    JsonObject o;
    o.str("bench", bench)
        .integer("hardwareThreads", host.hardwareThreads)
        .integer("affinityThreads", host.affinityThreads)
        .boolean("singleCore", host.singleCore)
        .boolean("nativeToolchain", host.nativeToolchain)
        .str("cpuModel", host.cpuModel)
        .str("ccVersion", host.ccVersion)
        .str("buildType", host.buildType);
    return o;
}

/** The inputs every bench runs on: equake's own sparse generator,
 *  the deterministic pattern of defaultInit otherwise. */
inline void
initInputs(const ir::Program &p, exec::Buffers &buf)
{
    if (p.name() == "equake") {
        workloads::initEquakeInputs(p, buf, 11);
        return;
    }
    defaultInit(p, buf);
}

/** Fresh buffers of @p p holding initInputs. */
inline exec::Buffers
freshBuffers(const ir::Program &p)
{
    exec::Buffers buf(p);
    initInputs(p, buf);
    return buf;
}

/** Every buffer of @p got equals @p ref bit for bit. */
inline bool
bitIdentical(const ir::Program &p, const exec::Buffers &ref,
             const exec::Buffers &got)
{
    return exec::bufferDeviation(p, ref, got).bitIdentical;
}

/**
 * The fastest of @p reps runs: @p run(rep) performs rep number
 * `rep` and returns its milliseconds. Every `"ms"` a bench commits
 * is this minimum, except bench_cache's warm lookups (a median of
 * batched reads).
 */
template <class Run>
double
minOfReps(int reps, Run &&run)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep)
        best = std::min(best, double(run(rep)));
    return best;
}

/** Median of @p v (0 when empty; the upper middle for even sizes). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

/** Geometric mean of the positive entries of @p v (0 when none). */
inline double
geomean(const std::vector<double> &v)
{
    double acc = 0;
    int n = 0;
    for (double x : v)
        if (x > 0) {
            acc += std::log(x);
            ++n;
        }
    return n ? std::exp(acc / n) : 0;
}

} // namespace bench
} // namespace polyfuse

#endif // POLYFUSE_BENCH_HARNESS_HH
