/**
 * @file
 * compile_cold: a closed loop of one caller compiling a seeded stream
 * of (program, size) pairs over all 13 registry programs, each at a
 * size not used before in the run, with no KernelCache. Each compile
 * is run once on bytecode and its outputs checked against the naive
 * interpreter reference. The pipeline does nearly all of the work;
 * native build, the service and warm execution do none.
 */

#include <algorithm>

#include "driver/artifact.hh"
#include "exec/engine.hh"
#include "pfbench.hh"
#include "support/timer.hh"

namespace pfbench {

namespace {

/**
 * Size number @p j of @p spec in the stream: counting up from an
 * eighth of the registry default (at least 8), so no size repeats
 * within a run and the check run stays a small share of an iteration.
 * j == 0 is the set-up size; the stream uses j >= 1.
 */
driver::WorkloadParams
coldSize(const driver::WorkloadSpec &spec, int64_t j)
{
    driver::WorkloadParams base;
    base.rows = std::max<int64_t>(8, spec.defaults.rows / 8);
    base.cols = std::max<int64_t>(8, spec.defaults.cols / 8);
    return sizeNumber(spec, base, j);
}

} // namespace

PassResult
runCompileCold(const RunConfig &cfg, Recorder &rec)
{
    PassResult out;
    const auto &registry = driver::workloadRegistry();
    const exec::BackendSpec &bytecode = *exec::findBackend("bytecode");

    // Set-up: one compile of every program at the set-up size, so
    // lazily initialized state is warm before the first timed compile.
    std::vector<double> setups;
    for (int rep = 0; rep < cfg.setupReps; ++rep) {
        double t0 = rec.nowUs();
        Timer timer;
        for (const auto &spec : registry) {
            ProgramKey key{&spec, coldSize(spec, 0)};
            ColdCompile cc = compileCold(key.make(), spec,
                                         exec::Tier::Bytecode, nullptr, 0);
            out.tally.attempt();
            if (!cc.artifact.ok())
                out.tally.fail("set-up compile of " + key.str());
        }
        setups.push_back(timer.seconds());
        if (cfg.trace != TraceMode::Off)
            rec.record("setup", 0, t0, rec.nowUs());
    }

    std::mt19937_64 rng(cfg.seed);
    std::vector<const driver::WorkloadSpec *> round;
    for (const auto &spec : registry)
        round.push_back(&spec);
    std::vector<int64_t> uses(registry.size(), 0);

    // Per program: compile ms of untraced and traced operations.
    std::map<std::string, std::vector<double>> plain, withSpans;
    std::vector<double> compileMs;
    double busy = 0; // compile + check run; references excluded
    uint64_t op = 0;
    bool corrupt = cfg.corrupt;
    Timer loop;
    // Whole rounds, each compiling every program once in a seeded
    // order, so the program mix is the same for every seed.
    while (loop.seconds() < cfg.seconds) {
        shuffle(round, rng);
        for (const driver::WorkloadSpec *spec : round) {
            ++op;
            size_t idx = size_t(spec - registry.data());
            ProgramKey key{spec, coldSize(*spec, ++uses[idx])};
            auto program = key.make();
            bool tr = traced(cfg, uses[idx]);
            out.tally.attempt();

            out.probeMs.push_back(hostProbeMs());
            ColdCompile cc = compileCold(
                program, *spec, exec::Tier::Bytecode,
                tr ? &rec : nullptr, op);
            busy += cc.opMs / 1e3;
            if (!cc.artifact.ok()) {
                out.tally.fail("compile of " + key.str());
                continue;
            }
            compileMs.push_back(cc.ms);
            (tr ? withSpans : plain)[spec->name].push_back(
                tr ? cc.opMs : cc.ms);

            Timer check;
            exec::Buffers buffers = serviceBuffers(*program);
            double t0 = rec.nowUs();
            exec::ExecResult r = driver::executeKernel(
                cc.artifact, buffers, exec::backendOptions(bytecode));
            if (tr)
                rec.record("driver.executeKernel", op, t0, rec.nowUs(),
                           {{"program", spec->name},
                            {"backend", "bytecode"}},
                           {{"loads", double(r.stats.loads)},
                            {"stores", double(r.stats.stores)}});
            busy += check.seconds();
            if (corrupt) {
                corruptOutputs(*program, buffers);
                corrupt = false;
            }
            std::string why = checkOutputs(*program, buffers,
                                           naiveReference(*program));
            if (!why.empty())
                out.tally.fail(key.str() + ": " + why);
        }
    }

    double compiles = double(compileMs.size());
    Metric p50{quantile(compileMs, 0.5), "ms"};
    Metric p90{quantile(compileMs, 0.9), "ms"};
    Metric rate{busy > 0 ? compiles / busy : 0, "1/s"};
    out.endToEnd["setup_s"] = {median(setups), "s"};
    out.endToEnd["op_ms.p50"] = p50;
    out.endToEnd["op_ms.tail"] = p90;
    out.endToEnd["ops_per_s"] = rate;
    out.report["compile_ms.p50"] = p50;
    out.report["compile_ms.p90"] = p90;
    out.report["compiles_per_s"] = rate;
    out.report["compiles"] = {compiles, "count"};
    for (const auto &kv : withSpans)
        if (!plain[kv.first].empty())
            out.overheadPairs.push_back(
                {median(kv.second), median(plain[kv.first])});
    return out;
}

} // namespace pfbench
