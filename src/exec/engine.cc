#include "exec/engine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "exec/kernel_cache.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace polyfuse {
namespace exec {

const char *
tierName(Tier tier)
{
    switch (tier) {
      case Tier::Interp: return "interp";
      case Tier::Bytecode: return "bytecode";
      case Tier::Native: return "native";
    }
    return "?";
}

bool
parseTier(const std::string &text, Tier *out)
{
    if (text == "interp")
        *out = Tier::Interp;
    else if (text == "bytecode")
        *out = Tier::Bytecode;
    else if (text == "native")
        *out = Tier::Native;
    else
        return false;
    return true;
}

const char *
parStrategyName(ParStrategy strategy)
{
    switch (strategy) {
      case ParStrategy::Off: return "off";
      case ParStrategy::Static: return "static";
      case ParStrategy::Graph: return "graph";
    }
    return "?";
}

bool
parseParStrategy(const std::string &text, ParStrategy *out)
{
    if (text == "off")
        *out = ParStrategy::Off;
    else if (text == "static")
        *out = ParStrategy::Static;
    else if (text == "graph")
        *out = ParStrategy::Graph;
    else
        return false;
    return true;
}

namespace {

/** The Tier-0 interpreter, with a batched sink adapted per access. */
ExecResult
interpret(const ir::Program &program, const codegen::AstPtr &ast,
          Buffers &buffers, TraceSink *sink)
{
    TraceHook hook;
    if (sink)
        hook = [sink](int space, int64_t off, bool w) {
            TraceRecord r{off, int32_t(space), uint8_t(w ? 1 : 0)};
            sink->onRecords(&r, 1);
        };
    ExecResult result;
    result.stats = run(program, ast, buffers, hook);
    result.tier = Tier::Interp;
    return result;
}

} // namespace

ExecResult
execute(const ir::Program &program, const codegen::AstPtr &ast,
        Buffers &buffers, const ExecOptions &options)
{
    if (options.tier == Tier::Interp)
        return interpret(program, ast, buffers, options.sink);
    // A transient image over the caller's program (non-owning: it
    // outlives this call).
    KernelImage image;
    image.program = std::shared_ptr<const ir::Program>(
        &program, [](const ir::Program *) {});
    image.ast = ast;
    image.bytecode = BytecodeKernel::compile(program, ast);
    if (options.tileBands)
        image.tileBands = *options.tileBands;
    return execute(image, buffers, options);
}

ExecResult
execute(const KernelImage &image, Buffers &buffers,
        const ExecOptions &options)
{
    if (options.tier == Tier::Interp)
        return interpret(*image.program, image.ast, buffers,
                         options.sink);
    ExecResult result;
    Tier tier = options.tier;
    bool tracing = options.sink != nullptr;
    bool want_par = options.par != ParStrategy::Off;

    if (tier == Tier::Native && tracing) {
        if (!options.allowFallback)
            fatal("native tier cannot emit traces");
        result.fallbackReason = "tracing needs an instrumented tier";
        tier = Tier::Bytecode;
    }

    if (tier == Tier::Native) {
        // The parallel-native ladder: parallel compile -> sequential
        // native -> bytecode, each step with the reason recorded,
        // and every decision taken before anything executes (the
        // same planning-before-execution contract runParallel
        // keeps).
        std::string reason;
        const NativeKernel *kernel = nullptr;
        if (want_par) {
            bool planned = true;
            std::string par_reason;
            try {
                failpoints::hit("exec.native.par.spawn");
            } catch (const std::exception &e) {
                planned = false;
                par_reason = e.what();
            }
            if (planned) {
                NativeOptions nopts;
                nopts.par = options.par;
                nopts.threads = options.threads;
                nopts.tileBands = options.tileBands;
                kernel = image.ensureNative(nopts, &par_reason);
            }
            if (!kernel) {
                kernel = image.ensureNative(&reason);
                if (kernel)
                    result.parFallbackReason = par_reason;
            } else if (kernel->parMode() == NativeParMode::Seq) {
                result.parFallbackReason = kernel->parReason();
            } else {
                result.par.threads = kernel->threads();
                result.par.strategy = options.par;
                result.par.regionsParallel =
                    kernel->regionsParallel();
                result.par.regionsSequential =
                    kernel->regionsSequential();
                result.par.criticalPath =
                    kernel->regionsParallel() ? 1 : 0;
            }
        } else {
            kernel = image.ensureNative(&reason);
        }
        if (kernel) {
            result.stats = kernel->run(buffers);
            result.tier = Tier::Native;
            return result;
        }
        if (!options.allowFallback)
            fatal("native tier unavailable: " + reason);
        result.fallbackReason = reason;
        result.par = ParRunStats{};
    }

    if (want_par && tracing) {
        result.parFallbackReason =
            "tracing requires sequential execution";
        want_par = false;
    }
    if (want_par) {
        const auto *bands = options.tileBands ? options.tileBands
                                              : &image.tileBands;
        result.stats = image.bytecode.runParallel(
            buffers, options.threads, options.par, bands, result.par,
            result.parFallbackReason);
    } else if (tracing) {
        result.stats = image.bytecode.run(buffers, *options.sink);
    } else {
        result.stats = image.bytecode.run(buffers);
    }
    result.tier = Tier::Bytecode;
    return result;
}

const std::vector<BackendSpec> &
backendRegistry()
{
    // Every entry promises bit-identity: the native emitters pin
    // `-ffp-contract=off` and the guarded scalar forms, and
    // parallel tiles write disjoint footprints in program order.
    // A future backend that reassociates (e.g. vectorized
    // reductions) registers with bitIdentical = false and a
    // maxAbsResidual bound instead; the sweep then checks the bound
    // and reports the measured deviation.
    static const std::vector<BackendSpec> registry = {
        {"interp", Tier::Interp, ParStrategy::Off, 1, true, 0.0},
        {"bytecode", Tier::Bytecode, ParStrategy::Off, 1, true, 0.0},
        {"bytecode-par2", Tier::Bytecode, ParStrategy::Static, 2,
         true, 0.0},
        {"bytecode-par4", Tier::Bytecode, ParStrategy::Static, 4,
         true, 0.0},
        {"bytecode-graph2", Tier::Bytecode, ParStrategy::Graph, 2,
         true, 0.0},
        {"bytecode-graph4", Tier::Bytecode, ParStrategy::Graph, 4,
         true, 0.0},
        {"native", Tier::Native, ParStrategy::Off, 1, true, 0.0},
        {"native-par2", Tier::Native, ParStrategy::Static, 2, true,
         0.0},
        {"native-par4", Tier::Native, ParStrategy::Static, 4, true,
         0.0},
    };
    return registry;
}

const BackendSpec *
findBackend(const std::string &name)
{
    for (const auto &spec : backendRegistry())
        if (name == spec.name)
            return &spec;
    return nullptr;
}

ExecOptions
backendOptions(const BackendSpec &spec)
{
    ExecOptions options;
    options.tier = spec.tier;
    options.par = spec.par;
    options.threads = spec.threads;
    return options;
}

namespace {

/** Map double bits onto an ordering where adjacent representable
 *  values differ by 1 (sign-magnitude flipped into a total order),
 *  so ulp distance is plain integer subtraction. */
uint64_t
orderedKey(uint64_t bits)
{
    return bits >> 63 ? ~bits : bits | (uint64_t(1) << 63);
}

} // namespace

BufferDeviation
bufferDeviation(const ir::Program &program, const Buffers &ref,
                const Buffers &got)
{
    BufferDeviation dev;
    for (size_t t = 0; t < program.tensors().size(); ++t) {
        const auto &a = ref.data(int(t));
        const auto &b = got.data(int(t));
        size_t n = std::min(a.size(), b.size());
        for (size_t i = 0; i < n; ++i) {
            uint64_t ba, bb;
            std::memcpy(&ba, &a[i], sizeof(ba));
            std::memcpy(&bb, &b[i], sizeof(bb));
            if (ba == bb)
                continue;
            dev.bitIdentical = false;
            bool na = std::isnan(a[i]), nb = std::isnan(b[i]);
            if (na != nb) {
                dev.maxAbs =
                    std::numeric_limits<double>::infinity();
                dev.maxUlp = std::numeric_limits<uint64_t>::max();
                continue;
            }
            if (na && nb)
                continue; // both NaN; payloads don't matter
            double d = std::fabs(a[i] - b[i]);
            if (d > dev.maxAbs)
                dev.maxAbs = d;
            uint64_t ka = orderedKey(ba), kb = orderedKey(bb);
            uint64_t ulp = ka > kb ? ka - kb : kb - ka;
            if (ulp > dev.maxUlp)
                dev.maxUlp = ulp;
        }
    }
    return dev;
}

} // namespace exec
} // namespace polyfuse
