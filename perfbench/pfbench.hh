/**
 * @file
 * Shared machinery of the PolyFuse benchmark (`pfbench`): run
 * configuration, the failure tally, the in-memory span recorder and
 * its Chrome trace-event export, output checks against independent
 * references, and the small statistics the report needs.
 *
 * The benchmark drives the library from outside, through its public
 * calls only (driver::compileKernel/executeKernel,
 * exec::emitNativeSource, KernelImage::ensureNative ->
 * NativeKernel::compile, exec::Buffers + service::fillServiceInputs,
 * service::Server via service::Client). Spans are recorded in the
 * benchmark's own files, around those calls; nothing inside the
 * library is instrumented. README.md in this directory documents the
 * workloads and every metric.
 */

#ifndef POLYFUSE_PERFBENCH_PFBENCH_HH
#define POLYFUSE_PERFBENCH_PFBENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "driver/artifact.hh"
#include "driver/registry.hh"
#include "exec/executor.hh"
#include "ir/program.hh"

namespace pfbench {

using namespace polyfuse;

/** Whether a workload pass records spans, and for which operations. */
enum class TraceMode
{
    Off,       ///< no spans (the end-to-end run)
    Alternate, ///< every other timed operation traced (overhead)
    All,       ///< every operation traced (coverage passes)
};

/** How one workload pass runs. */
struct RunConfig
{
    uint64_t seed = 1;
    double seconds = 10;  ///< length of the timed loop
    int setupReps = 3;    ///< set-ups timed; setup_s is their median
    TraceMode trace = TraceMode::Off;
    /** Perturb the first checked output, to prove the check fires. */
    bool corrupt = false;
    /** Directory for the service socket (inside the checkout). */
    std::string workDir = ".";
};

/** One reported number. */
struct Metric
{
    double value = 0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Operations attempted and failed, with the first few reasons. */
class Tally
{
  public:
    void attempt() { ++attempted_; }
    /** Count one failed/refused/wrong-output operation. */
    void fail(const std::string &why);
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &reasons() const { return reasons_; }
    void merge(const Tally &other);

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

using Labels = std::vector<std::pair<std::string, std::string>>;
using Values = std::vector<std::pair<std::string, double>>;

/** One recorded span. Times are microseconds since the recorder
 *  epoch; ids are unique within a recorder, parent 0 is a root. */
struct Span
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0; ///< spans of one operation share this
    double startUs = 0;
    double endUs = 0;
    uint32_t tid = 0;
    Labels labels;
    Values values;

    double ms() const { return (endUs - startUs) / 1e3; }
    /** Label by key ("" when absent). */
    std::string label(const std::string &key) const;
    /** Numeric value by key (@p fallback when absent). */
    double value(const std::string &key, double fallback = 0) const;
};

/** Thread-safe in-memory span store of one workload pass. */
class Recorder
{
  public:
    explicit Recorder(std::string process);
    const std::string &process() const { return process_; }
    /** Microseconds since the benchmark started (one timeline for
     *  every recorder). */
    double nowUs() const;
    uint64_t newId();
    void add(Span span);
    /** Record a root span of operation @p request; @return its id. */
    uint64_t record(std::string name, uint64_t request, double start_us,
                    double end_us, Labels labels = {}, Values values = {});
    std::vector<Span> spans() const;

  private:
    std::string process_;
    mutable std::mutex mu_;
    uint64_t nextId_ = 1;      ///< guarded by mu_
    std::vector<Span> spans_;  ///< guarded by mu_
};

/** Write the recorders' spans as Chrome trace-event JSON (one
 *  trace "process" per recorder); false when the file cannot be
 *  written. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const Recorder *> &recorders,
                      const std::string &host_json);

/** Median (mean of the two middle values for even counts); 0 when
 *  empty. */
double median(std::vector<double> v);
/** Nearest-rank quantile @p q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> v, double q);
/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &v);

/** A registry program at a concrete size. */
struct ProgramKey
{
    const driver::WorkloadSpec *spec = nullptr;
    driver::WorkloadParams params;

    std::string name() const { return spec->name; }
    /** "name@rows x cols" for reports and failure reasons. */
    std::string str() const;
    std::shared_ptr<const ir::Program> make() const;
};

/**
 * Size number @p j (j >= 0) of @p spec counting up from @p base: every
 * j gives a distinct program, and every size meets the factory's
 * divisibility rule. Programs with two size parameters step rows
 * first, so both stay near @p base.
 */
driver::WorkloadParams sizeNumber(const driver::WorkloadSpec &spec,
                                  driver::WorkloadParams base, int64_t j);

/** Registry entry by name; throws when unknown. */
const driver::WorkloadSpec &spec(const std::string &name);

/**
 * The independent reference: Strategy::Naive compiled and run on
 * Tier::Interp over service::fillServiceInputs inputs. It shares no
 * code with Compose or with any backend under test.
 */
std::vector<std::vector<double>> naiveReference(const ir::Program &program);

/** Absolute tolerance of the output check (tests/test_workloads.cc). */
constexpr double kTolerance = 1e-9;

/**
 * Compare every Output tensor of @p buffers against @p ref within
 * kTolerance. @return "" when they match, else the first mismatch.
 */
std::string checkOutputs(const ir::Program &program,
                         const exec::Buffers &buffers,
                         const std::vector<std::vector<double>> &ref);

/** Flip the first element of the first Output tensor. */
void corruptOutputs(const ir::Program &program, exec::Buffers &buffers);

/** One cold compile: compileKernel with no KernelCache and a fresh
 *  CompileContext. */
struct ColdCompile
{
    driver::KernelArtifact artifact;
    double ms = 0;   ///< compileKernel wall time
    double opMs = 0; ///< ms plus the span recording, when traced
    pres::fm::Counters fm; ///< Presburger work of this compile
};

/**
 * Compile @p program (registry entry @p spec, strategy ours, the
 * registry's default tiles) for @p tier. With @p rec, records a
 * "driver.compileKernel" span and one child span per PassStats pass
 * under request id @p request.
 */
ColdCompile compileCold(std::shared_ptr<const ir::Program> program,
                        const driver::WorkloadSpec &spec,
                        exec::Tier tier, Recorder *rec,
                        uint64_t request);

/** Fresh buffers filled with the service's canonical inputs. */
exec::Buffers serviceBuffers(const ir::Program &program);

/** Reset the process's resident-set high-water mark, so the
 *  reference computations do not count toward peakRssMb(). */
void resetPeakRss();

/** Peak resident set of this process since the last resetPeakRss(),
 *  MiB. */
double peakRssMb();

/**
 * The host probe: a fixed interpreter-style loop written here,
 * independent of the library (switch dispatch over a pseudo-random op
 * tape, with indexed loads and stores into a 2 MiB table). It is the
 * same kind of code as the compiler and the bytecode VM, so it slows
 * down with them when other tenants contend for the host's cores and
 * caches. Workloads run it at quiet points of their loop.
 * @return its wall time, ms.
 */
double hostProbeMs();

/** The probe time that end-to-end times are normalized to: they read
 *  as milliseconds on a host where the probe takes this long. */
constexpr double kReferenceProbeMs = 5.0;

/** Whether the @p nth operation on one key (program, kernel) records
 *  spans; alternating per key keeps traced and untraced samples of
 *  every key balanced for the overhead comparison. */
bool traced(const RunConfig &cfg, uint64_t nth);

/** Fisher-Yates over a fully specified generator, so a seed gives the
 *  same order with every standard library. */
template <typename T>
void
shuffle(std::vector<T> &v, std::mt19937_64 &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng() % i]);
}

/** The most threads any workload uses (the benchmark host has 4). */
constexpr unsigned kMaxThreads = 4;

/** Run fn(0..n-1) on up to kMaxThreads threads; rethrows the first
 *  exception after every thread has joined. */
void parallelFor(size_t n, const std::function<void(size_t)> &fn);

/** What one workload pass produced. */
struct PassResult
{
    Metrics endToEnd; ///< the contract metrics of every workload
    Metrics report;   ///< the workload's own named metrics
    /** Per-operation traced/untraced medians for the overhead:
     *  (traced ms, untraced ms) per operation class. */
    std::vector<std::pair<double, double>> overheadPairs;
    std::vector<std::string> notes; ///< report-only lines
    std::vector<double> probeMs;    ///< hostProbeMs() samples
    Tally tally;
};

PassResult runCompileCold(const RunConfig &cfg, Recorder &rec);
PassResult runExec(const RunConfig &cfg, Recorder &rec, bool fused);
PassResult runServeNative(const RunConfig &cfg, Recorder &rec);

/** Program membership of the exec workloads, fixed by name: read
 *  once from the `extensions` / `promoted` counters of
 *  `polyfuse --emit stats` (README.md). */
const std::vector<std::string> &fusedPrograms();
const std::vector<std::string> &unfusedPrograms();

/** The backends the exec workloads time (exec::backendRegistry()
 *  names). */
const std::vector<std::string> &execBackends();

/** Which pass each per-layer family is read from, in a traced run. */
struct LayerSources
{
    const Recorder *compile = nullptr; ///< compile_cold
    std::vector<const Recorder *> exec; ///< aggregate exec metrics
    const Recorder *fused = nullptr;    ///< exec_fused
    const Recorder *unfused = nullptr;  ///< exec_unfused
    const Recorder *serve = nullptr;    ///< serve_native
};

/** Every per-layer metric, computed from the recorded spans. */
Metrics layerMetrics(const LayerSources &src);

} // namespace pfbench

#endif // POLYFUSE_PERFBENCH_PFBENCH_HH
