#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include <malloc.h>
#include <sys/resource.h>

#include "driver/pipeline.hh"
#include "exec/engine.hh"
#include "pfbench.hh"
#include "service/server.hh"
#include "support/json.hh"
#include "support/timer.hh"

namespace pfbench {

namespace {

/** One epoch for every recorder, so all passes share a timeline. */
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

/** Small per-thread id for trace events. */
uint32_t
threadTag()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t tag = next++;
    return tag;
}

/** Keep the report readable: only the first reasons are stored. */
constexpr size_t kMaxReasons = 20;

/** Output tensors of @p program (id order), copied out of @p buffers. */
std::vector<std::vector<double>>
outputsOf(const ir::Program &program, const exec::Buffers &buffers)
{
    std::vector<std::vector<double>> out;
    for (size_t t = 0; t < program.tensors().size(); ++t)
        if (program.tensor(t).kind == ir::TensorKind::Output)
            out.push_back(buffers.data(int(t)));
    return out;
}

} // namespace

void
Tally::fail(const std::string &why)
{
    ++failed_;
    if (reasons_.size() < kMaxReasons)
        reasons_.push_back(why);
}

void
Tally::merge(const Tally &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const auto &r : other.reasons_)
        if (reasons_.size() < kMaxReasons)
            reasons_.push_back(r);
}

std::string
Span::label(const std::string &key) const
{
    for (const auto &kv : labels)
        if (kv.first == key)
            return kv.second;
    return "";
}

double
Span::value(const std::string &key, double fallback) const
{
    for (const auto &kv : values)
        if (kv.first == key)
            return kv.second;
    return fallback;
}

Recorder::Recorder(std::string process) : process_(std::move(process))
{
}

double
Recorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

uint64_t
Recorder::newId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_++;
}

void
Recorder::add(Span span)
{
    span.tid = threadTag();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

uint64_t
Recorder::record(std::string name, uint64_t request, double start_us,
                 double end_us, Labels labels, Values values)
{
    Span s;
    s.name = std::move(name);
    s.id = newId();
    s.request = request;
    s.startUs = start_us;
    s.endUs = end_us;
    s.labels = std::move(labels);
    s.values = std::move(values);
    uint64_t id = s.id;
    add(std::move(s));
    return id;
}

std::vector<Span>
Recorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const Recorder *> &recorders,
                 const std::string &host_json)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"host\": "
        << host_json << "}, \"traceEvents\": [\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",\n";
        first = false;
    };
    char num[64];
    for (size_t p = 0; p < recorders.size(); ++p) {
        sep();
        out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
            << p + 1 << ", \"args\": {\"name\": \""
            << json::escape(recorders[p]->process()) << "\"}}";
        for (const Span &s : recorders[p]->spans()) {
            sep();
            std::snprintf(num, sizeof(num), "%.3f", s.startUs);
            out << "{\"name\": \"" << json::escape(s.name)
                << "\", \"ph\": \"X\", \"ts\": " << num;
            std::snprintf(num, sizeof(num), "%.3f",
                          std::max(0.0, s.endUs - s.startUs));
            out << ", \"dur\": " << num << ", \"pid\": " << p + 1
                << ", \"tid\": " << s.tid << ", \"args\": {\"id\": "
                << s.id << ", \"parent\": " << s.parent
                << ", \"request\": " << s.request;
            for (const auto &kv : s.labels)
                out << ", \"" << json::escape(kv.first) << "\": \""
                    << json::escape(kv.second) << "\"";
            for (const auto &kv : s.values) {
                std::snprintf(num, sizeof(num), "%.17g", kv.second);
                out << ", \"" << json::escape(kv.first)
                    << "\": " << num;
            }
            out << "}}";
        }
    }
    out << "\n]}\n";
    return bool(out);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(q * double(v.size())));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

std::string
ProgramKey::str() const
{
    return name() + "@" + std::to_string(params.rows) + "x" +
           std::to_string(params.cols);
}

std::shared_ptr<const ir::Program>
ProgramKey::make() const
{
    return std::make_shared<const ir::Program>(spec->make(params));
}

driver::WorkloadParams
sizeNumber(const driver::WorkloadSpec &spec, driver::WorkloadParams base,
           int64_t j)
{
    // The image factories reject other sizes (src/workloads/*.cc).
    const std::string name = spec.name;
    int64_t g = name == "interp"      ? 16
                : name == "bilateral" ? 8
                : name == "laplacian" ? 4
                : name == "camera"    ? 2
                                      : 1;
    base.rows = std::max(g, base.rows / g * g);
    base.cols = std::max(g, base.cols / g * g);
    if (name == "2mm" || name == "gemver") { // rows is the only size
        base.rows += j * g;
    } else {
        base.rows += j % 8 * g;
        base.cols += j / 8 * g;
    }
    return base;
}

const driver::WorkloadSpec &
spec(const std::string &name)
{
    const driver::WorkloadSpec *s = driver::findWorkload(name);
    if (!s)
        throw std::runtime_error("unknown registry program " + name);
    return *s;
}

std::vector<std::vector<double>>
naiveReference(const ir::Program &program)
{
    driver::PipelineOptions popts;
    popts.strategy = driver::Strategy::Naive;
    driver::CompilationState state =
        driver::Pipeline(popts).run(program);
    exec::Buffers buffers = serviceBuffers(program);
    exec::ExecOptions eopts;
    eopts.tier = exec::Tier::Interp;
    exec::execute(program, state.ast, buffers, eopts);
    return outputsOf(program, buffers);
}

std::string
checkOutputs(const ir::Program &program, const exec::Buffers &buffers,
             const std::vector<std::vector<double>> &ref)
{
    size_t o = 0;
    for (size_t t = 0; t < program.tensors().size(); ++t) {
        if (program.tensor(t).kind != ir::TensorKind::Output)
            continue;
        if (o >= ref.size())
            return "more outputs than the reference";
        const std::vector<double> &got = buffers.data(int(t));
        const std::vector<double> &want = ref[o++];
        if (got.size() != want.size())
            return "tensor " + program.tensor(t).name + " size differs";
        for (size_t i = 0; i < got.size(); ++i) {
            double a = got[i], b = want[i];
            bool same = a == b || std::fabs(a - b) <= kTolerance ||
                        (std::isnan(a) && std::isnan(b));
            if (!same) {
                std::ostringstream why;
                why.precision(17);
                why << "tensor " << program.tensor(t).name << "["
                    << i << "] = " << a << ", reference " << b;
                return why.str();
            }
        }
    }
    if (o != ref.size())
        return "fewer outputs than the reference";
    return "";
}

void
corruptOutputs(const ir::Program &program, exec::Buffers &buffers)
{
    for (size_t t = 0; t < program.tensors().size(); ++t)
        if (program.tensor(t).kind == ir::TensorKind::Output &&
            !buffers.data(int(t)).empty()) {
            buffers.data(int(t))[0] += 1.0;
            return;
        }
}

exec::Buffers
serviceBuffers(const ir::Program &program)
{
    exec::Buffers buffers(program);
    service::fillServiceInputs(program, buffers);
    return buffers;
}

void
resetPeakRss()
{
    malloc_trim(0); // free memory the references left in the arenas
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

ColdCompile
compileCold(std::shared_ptr<const ir::Program> program,
            const driver::WorkloadSpec &spec, exec::Tier tier,
            Recorder *rec, uint64_t request)
{
    driver::PipelineOptions popts;
    popts.strategy = driver::Strategy::Ours;
    popts.tileSizes = spec.defaultTiles;
    driver::Pipeline pipeline(popts);
    driver::CompileContext ctx;
    driver::ArtifactOptions aopts;
    aopts.tier = tier;

    ColdCompile out;
    double t0 = rec ? rec->nowUs() : 0;
    Timer timer;
    out.artifact = driver::compileKernel(pipeline, std::move(program),
                                         ctx, aopts);
    out.ms = timer.milliseconds();
    out.fm = ctx.fmCounters();
    if (rec) {
        Span s;
        s.name = "driver.compileKernel";
        s.id = rec->newId();
        s.request = request;
        s.startUs = t0;
        s.endUs = t0 + out.ms * 1e3;
        s.labels = {{"program", spec.name}};
        s.values = {{"fm_elims", double(out.fm.eliminations)},
                    {"fm_rows", double(out.fm.constraintsVisited)},
                    {"op_cache_hits", double(out.fm.cacheHits)},
                    {"op_cache_misses", double(out.fm.cacheMisses)},
                    {"downgrades", double(out.artifact.downgraded())}};
        // PassStats times are relative to the pipeline start, which
        // follows the fingerprint step by a few microseconds.
        for (const driver::PassStat &ps : out.artifact.stats.passes()) {
            Span c;
            c.name = ps.name;
            c.id = rec->newId();
            c.parent = s.id;
            c.request = request;
            c.startUs = t0 + (ps.endMs - ps.ms) * 1e3;
            c.endUs = t0 + ps.endMs * 1e3;
            for (const auto &kv : ps.counters)
                c.values.emplace_back(kv.first, double(kv.second));
            rec->add(std::move(c));
        }
        rec->add(std::move(s));
        out.opMs = timer.milliseconds();
    } else {
        out.opMs = out.ms;
    }
    return out;
}

double
hostProbeMs()
{
    constexpr size_t kTable = 1 << 18; // 2 MiB of doubles
    static const std::vector<uint8_t> tape = [] {
        std::vector<uint8_t> t(4096);
        uint64_t x = 88172645463325252ull;
        for (auto &op : t) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            op = uint8_t(x % 8);
        }
        return t;
    }();
    thread_local std::vector<double> table(kTable, 1.0);
    Timer timer;
    uint64_t idx = 1;
    double acc = 0;
    for (int rep = 0; rep < 128; ++rep) {
        for (uint8_t op : tape) {
            switch (op) {
            case 0:
                acc += table[idx];
                idx = (idx * 2654435761u + 1) & (kTable - 1);
                break;
            case 1: table[idx] = acc * 0.5; break;
            case 2: acc *= 1.0000001; break;
            case 3: idx = (idx + 4099) & (kTable - 1); break;
            case 4: acc -= table[(idx ^ 0x5555) & (kTable - 1)]; break;
            case 5:
                if (acc > 1e9 || acc < -1e9)
                    acc = 0;
                break;
            case 6: table[(idx + 1) & (kTable - 1)] += 1.0; break;
            default: acc += double(idx & 7); break;
            }
        }
    }
    table[0] = acc;
    return timer.milliseconds();
}

bool
traced(const RunConfig &cfg, uint64_t nth)
{
    return cfg.trace == TraceMode::All ||
           (cfg.trace == TraceMode::Alternate && nth % 2 == 1);
}

void
parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::exception_ptr first; // guarded by mu
    auto worker = [&]() {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!first)
                    first = std::current_exception();
            }
        }
    };
    std::vector<std::thread> threads;
    size_t nt = std::min<size_t>(kMaxThreads, n);
    for (size_t t = 1; t < nt; ++t) {
        try {
            threads.emplace_back(worker);
        } catch (const std::system_error &) {
            break; // the threads already started share the work
        }
    }
    worker();
    for (auto &t : threads)
        t.join();
    if (first)
        std::rethrow_exception(first);
}

const std::vector<std::string> &
execBackends()
{
    static const std::vector<std::string> names = {
        "native", "native-par2", "bytecode"};
    return names;
}

const std::vector<std::string> &
fusedPrograms()
{
    static const std::vector<std::string> names = {
        "conv2d", "bilateral", "camera", "harris",
        "laplacian", "interp", "unsharp", "equake"};
    return names;
}

const std::vector<std::string> &
unfusedPrograms()
{
    static const std::vector<std::string> names = {
        "2mm", "gemver", "covariance", "convbn", "seidel"};
    return names;
}

} // namespace pfbench
