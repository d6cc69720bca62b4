/**
 * @file
 * exec_fused / exec_unfused: a closed loop of one caller running warm
 * kernels, compiled during set-up, on the native, native-par2 and
 * bytecode backends in an order the seed shuffles. exec_fused holds
 * the programs where Compose inserts extension nodes and Promote makes
 * a scratchpad (tile-local intermediates, promotion alloc and
 * copy-in); exec_unfused holds the programs where it does neither, so
 * a promotion or fusion change should leave it unchanged.
 */

#include "bench/common.hh"
#include "driver/artifact.hh"
#include "exec/engine.hh"
#include "exec/kernel_cache.hh"
#include "exec/native.hh"
#include "pfbench.hh"
#include "support/timer.hh"

namespace pfbench {

namespace {

/** One program of the workload, compiled for every backend. */
struct Kernel
{
    ProgramKey key;
    std::shared_ptr<const ir::Program> program;
    std::vector<std::vector<double>> reference;
    driver::KernelArtifact artifact;
};

/** The native build options behind a native backend. */
exec::NativeOptions
nativeOptions(const exec::BackendSpec &backend)
{
    exec::NativeOptions n;
    n.par = backend.par;
    n.threads = backend.threads;
    return n;
}

/**
 * Compile @p k and build its native kernels (the lazy build of
 * KernelImage::ensureNative, which calls NativeKernel::compile). With
 * @p rec, also times the render step alone through emitNativeSource.
 */
void
buildKernel(Kernel &k, Recorder *rec, uint64_t request, Tally &tally)
{
    ColdCompile cc = compileCold(k.program, *k.key.spec,
                                 exec::Tier::Native, rec, request);
    k.artifact = std::move(cc.artifact);
    if (!k.artifact.ok()) {
        tally.fail("compile of " + k.key.str());
        return;
    }
    const exec::KernelImage &image = *k.artifact.image;
    for (const std::string &name : execBackends()) {
        const exec::BackendSpec &backend = *exec::findBackend(name);
        if (backend.tier != exec::Tier::Native)
            continue;
        exec::NativeOptions nopts = nativeOptions(backend);
        double renderMs = 0;
        if (rec) {
            double t0 = rec->nowUs();
            Timer render;
            bool par = nopts.par != exec::ParStrategy::Off;
            std::string src = exec::emitNativeSource(
                *k.program, image.ast,
                par ? exec::NativeKernel::parallelToolchain()
                    : exec::NativeParMode::Seq,
                par ? nopts.threads : 1, &image.tileBands);
            renderMs = render.milliseconds();
            rec->record("exec.emitNativeSource", request, t0,
                        rec->nowUs(),
                        {{"program", k.key.name()}, {"backend", name}},
                        {{"bytes", double(src.size())}});
        }
        double t0 = rec ? rec->nowUs() : 0;
        std::string reason;
        const exec::NativeKernel *nk =
            image.ensureNative(nopts, &reason);
        if (rec)
            rec->record("exec.NativeKernel::compile", request, t0,
                        rec->nowUs(),
                        {{"program", k.key.name()}, {"backend", name}},
                        {{"render_ms", renderMs}});
        tally.attempt();
        if (!nk)
            tally.fail(k.key.str() + " " + name + " build: " + reason);
    }
}

/** One traced bytecode run through the simulated hierarchy of
 *  bench/common.hh; the run's outputs are checked as well. */
void
simulateMemory(const Kernel &k, Recorder &rec, Tally &tally)
{
    bench::RunOptions ro;
    memsim::MemoryHierarchy mem(ro.l1, ro.l2);
    const ir::Program &p = *k.program;
    for (size_t t = 0; t < p.tensors().size(); ++t) {
        mem.addSpace(int(t), p.tensorSize(int(t)));
        mem.addSpace(int(p.tensors().size() + t), p.tensorSize(int(t)));
    }
    memsim::HierarchySink sink(mem);
    exec::Buffers buffers = serviceBuffers(p);
    exec::ExecOptions opts;
    opts.tier = exec::Tier::Bytecode;
    opts.sink = &sink;
    double t0 = rec.nowUs();
    driver::executeKernel(k.artifact, buffers, opts);
    const memsim::CacheStats &st = mem.stats();
    rec.record("memsim.run", 0, t0, rec.nowUs(), {{"program", k.key.name()}},
               {{"accesses", double(st.accesses)},
                {"l1_misses", double(st.l1Misses)},
                {"l2_misses", double(st.l2Misses)},
                {"dram_bytes", double(st.dramBytes)}});
    tally.attempt();
    std::string why = checkOutputs(p, buffers, k.reference);
    if (!why.empty())
        tally.fail(k.key.str() + " memsim run: " + why);
}

/** One bytecode tile-graph run on 2 threads: the tiles launched and
 *  the ready-queue waits of the workload's tile DAGs. Native tile
 *  teams report regions, not tiles, so this is where tile-scheduling
 *  overhead is counted. */
void
probeTiles(const Kernel &k, Recorder &rec, Tally &tally)
{
    exec::Buffers buffers = serviceBuffers(*k.program);
    double t0 = rec.nowUs();
    exec::ExecResult r = driver::executeKernel(
        k.artifact, buffers,
        exec::backendOptions(*exec::findBackend("bytecode-graph2")));
    rec.record("exec.par_probe", 0, t0, rec.nowUs(),
               {{"program", k.key.name()}},
               {{"tiles", double(r.par.tilesExecuted)},
                {"waits", double(r.par.waits)}});
    tally.attempt();
    std::string why = checkOutputs(*k.program, buffers, k.reference);
    if (!why.empty())
        tally.fail(k.key.str() + " bytecode-graph2: " + why);
}

} // namespace

PassResult
runExec(const RunConfig &cfg, Recorder &rec, bool fused)
{
    PassResult out;
    const bool tracing = cfg.trace != TraceMode::Off;
    std::vector<Kernel> kernels;
    for (const std::string &name :
         fused ? fusedPrograms() : unfusedPrograms()) {
        const driver::WorkloadSpec &s = spec(name);
        Kernel k{{&s, s.defaults}, nullptr, {}, {}};
        k.program = k.key.make();
        kernels.push_back(std::move(k));
    }

    // References first: outside every timed metric.
    parallelFor(kernels.size(), [&](size_t i) {
        kernels[i].reference = naiveReference(*kernels[i].program);
    });
    resetPeakRss();

    // Set-up: compile every kernel and build both native kernels,
    // from scratch each repetition; setup_s is the median.
    std::vector<double> setups;
    for (int rep = 0; rep < cfg.setupReps; ++rep) {
        bool last = rep + 1 == cfg.setupReps;
        std::vector<Tally> tallies(kernels.size());
        double t0 = rec.nowUs();
        Timer timer;
        parallelFor(kernels.size(), [&](size_t i) {
            buildKernel(kernels[i], tracing && last ? &rec : nullptr,
                        i + 1, tallies[i]);
        });
        setups.push_back(timer.seconds());
        if (tracing)
            rec.record("setup", 0, t0, rec.nowUs());
        for (const Tally &t : tallies)
            out.tally.merge(t);
    }

    // First runs (warm-up, discarded from the timed medians; checked).
    std::map<std::string, std::string> parFallbacks;
    for (Kernel &k : kernels) {
        if (!k.artifact.ok())
            continue;
        for (const std::string &name : execBackends()) {
            const exec::BackendSpec &backend = *exec::findBackend(name);
            exec::Buffers buffers = serviceBuffers(*k.program);
            double t0 = rec.nowUs();
            exec::ExecResult r = driver::executeKernel(
                k.artifact, buffers, exec::backendOptions(backend));
            if (tracing && name == "native")
                rec.record("exec.first_run", 0, t0, rec.nowUs(),
                           {{"program", k.key.name()}});
            out.tally.attempt();
            std::string why = r.tier == backend.tier
                                  ? checkOutputs(*k.program, buffers,
                                                 k.reference)
                                  : std::string("ran on ") +
                                        exec::tierName(r.tier);
            if (!why.empty())
                out.tally.fail(k.key.str() + " " + name + ": " + why);
        }
        if (tracing) {
            simulateMemory(k, rec, out.tally);
            probeTiles(k, rec, out.tally);
        }
    }

    // The timed loop: whole rounds, each running every (kernel,
    // backend) pair once in a seeded order, so every kernel has the
    // same number of samples; fresh buffers outside the timed call.
    struct Pair
    {
        size_t kernel;
        std::string backend;
    };
    std::vector<Pair> round;
    for (size_t i = 0; i < kernels.size(); ++i)
        if (kernels[i].artifact.ok())
            for (const std::string &b : execBackends())
                round.push_back({i, b});
    std::mt19937_64 rng(cfg.seed);
    // Per "program/backend": executeKernel ms of every sample, and the
    // operation ms (span recording included) of untraced and traced
    // samples, for the tracing overhead.
    std::map<std::string, std::vector<double>> samplesMs, plain,
        withSpans;
    std::map<std::string, uint64_t> runs;
    uint64_t op = 0;
    double kernelSeconds = 0;
    bool corrupt = cfg.corrupt;
    Timer loop;
    while (!round.empty() && loop.seconds() < cfg.seconds) {
        shuffle(round, rng);
        for (const Pair &pair : round) {
            ++op;
            const Kernel &k = kernels[pair.kernel];
            const exec::BackendSpec &backend =
                *exec::findBackend(pair.backend);
            std::string id = k.key.name() + "/" + pair.backend;
            bool tr = traced(cfg, ++runs[id]);
            out.tally.attempt();

            out.probeMs.push_back(hostProbeMs());
            double tb = rec.nowUs();
            exec::Buffers buffers = serviceBuffers(*k.program);
            if (tr)
                rec.record("exec.Buffers", op, tb, rec.nowUs(),
                           {{"program", k.key.name()}});

            double t0 = rec.nowUs();
            Timer call;
            exec::ExecResult r = driver::executeKernel(
                k.artifact, buffers, exec::backendOptions(backend));
            double ms = call.milliseconds();
            double opMs = ms;
            if (tr) {
                rec.record("driver.executeKernel", op, t0, t0 + ms * 1e3,
                           {{"program", k.key.name()},
                            {"backend", pair.backend},
                            {"tier", exec::tierName(r.tier)},
                            {"par_fallback", r.parFallbackReason}},
                           {{"loads", double(r.stats.loads)},
                            {"stores", double(r.stats.stores)},
                            {"par_threads", double(r.par.threads)}});
                opMs = call.milliseconds();
            }

            if (corrupt) {
                corruptOutputs(*k.program, buffers);
                corrupt = false;
            }
            std::string label = k.key.str() + " " + pair.backend;
            if (r.tier != backend.tier) {
                out.tally.fail(label + " ran on " +
                               exec::tierName(r.tier) + ": " +
                               r.fallbackReason);
                continue;
            }
            if (backend.par != exec::ParStrategy::Off &&
                !r.parFallbackReason.empty())
                parFallbacks[k.key.name()] = r.parFallbackReason;
            std::string why = checkOutputs(*k.program, buffers,
                                           k.reference);
            if (!why.empty()) {
                out.tally.fail(label + ": " + why);
                continue;
            }
            samplesMs[id].push_back(ms);
            (tr ? withSpans : plain)[id].push_back(opMs);
            kernelSeconds += ms / 1e3;
        }
    }

    // Per kernel: median of executeKernel; span recording
    // happens after the timed call, so traced samples count too.
    std::map<std::string, std::vector<double>> perBackend;
    std::vector<double> medians, ratios;
    size_t samples = 0;
    for (const Kernel &k : kernels) {
        for (const std::string &b : execBackends()) {
            std::string id = k.key.name() + "/" + b;
            const std::vector<double> &all = samplesMs[id];
            if (all.empty()) {
                out.tally.fail(id + " has no measured sample");
                continue;
            }
            samples += all.size();
            double m = median(all);
            out.report["run_ms." + b + "." + k.key.name()] = {m, "ms"};
            medians.push_back(m);
            for (double v : all)
                ratios.push_back(v / m);
            perBackend[b].push_back(m);
            if (!withSpans[id].empty() && !plain[id].empty())
                out.overheadPairs.push_back(
                    {median(withSpans[id]), median(plain[id])});
        }
    }
    out.endToEnd["setup_s"] = {median(setups), "s"};
    out.endToEnd["op_ms.p50"] = {geomean(medians), "ms"};
    // A kernel has a few dozen samples at most, too few for its own
    // p90; pooling every sample relative to its kernel's median gives
    // the workload's p90 jitter with tens of samples beyond it.
    out.endToEnd["op_ms.tail"] = {geomean(medians) * quantile(ratios, 0.9),
                                  "ms"};
    out.endToEnd["ops_per_s"] = {
        kernelSeconds > 0 ? double(samples) / kernelSeconds : 0, "1/s"};
    for (const auto &kv : perBackend)
        out.report["run_ms." + kv.first] = {geomean(kv.second), "ms"};
    out.report["samples"] = {double(samples), "count"};
    for (const auto &kv : parFallbacks)
        out.notes.push_back("par fallback " + kv.first + ": " +
                            kv.second);
    return out;
}

} // namespace pfbench
