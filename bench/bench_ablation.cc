/**
 * @file
 * E8 -- ablation of the design choices DESIGN.md calls out, on the
 * Harris pipeline, each variant expressed as driver pipeline
 * options:
 *
 *   full            the composition as published
 *   no-promotion    extension fusion but intermediates stay in DRAM
 *                   (shows the contribution of Sec. V-B storage
 *                   reduction; uses an out-of-place-safe pipeline)
 *   dilated         PolyMage-style over-approximated footprints
 *                   (shows the cost of loose tile shapes)
 *   no-guard        recompute guard disabled (maxRecompute = inf)
 *   tiling-only     live-out tiling without post-tiling fusion
 *                   (smartfuse + tiles: what tiling-after-fusion
 *                   already achieves)
 *
 * Each variant reports the modeled 32-thread time and simulated DRAM
 * traffic next to the measured native wall-clock (median and IQR of
 * warm runs on this host). A second table measures promotion against
 * `--no-promote` on the native tier for every registry program that
 * Compose fuses, at its default sizes and tiles.
 */

#include <algorithm>
#include <memory>

#include "bench/harness.hh"
#include "driver/registry.hh"
#include "workloads/pipelines.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

namespace {

struct Variant
{
    const char *name;
    bool promote;
    unsigned dilation;
    double maxRecompute;
    bool fusion; ///< false: smartfuse + tiling only
};

/** Warm native runs per measurement (after kWarmup untimed ones). */
constexpr int kReps = 21;
constexpr int kWarmup = 2;

/** Median and interquartile range of one timed series. */
struct Spread
{
    double median = -1; ///< < 0: not measured
    double iqr = 0;
};

Spread
spreadOf(std::vector<double> v)
{
    Spread s;
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    auto at = [&](double q) { return v[size_t(q * (v.size() - 1))]; };
    s.median = at(0.5);
    s.iqr = at(0.75) - at(0.25);
    return s;
}

/** Sequential native wall-clock of each AST in @p asts: median of
 *  kReps warm runs, each on freshly initialized buffers. The kernels
 *  take turns run by run, so a drift in host speed hits them alike. */
std::vector<Spread>
nativeMs(const ir::Program &p, const std::vector<codegen::AstPtr> &asts)
{
    std::vector<exec::NativeKernel> kernels;
    for (const auto &ast : asts) {
        kernels.push_back(exec::NativeKernel::compile(p, ast));
        if (!kernels.back().ok())
            return std::vector<Spread>(asts.size());
    }
    std::vector<std::vector<double>> ms(asts.size());
    for (int rep = 0; rep < kWarmup + kReps; ++rep)
        for (size_t i = 0; i < kernels.size(); ++i) {
            exec::Buffers buf = freshBuffers(p);
            double s = kernels[i].run(buf).seconds;
            if (rep >= kWarmup)
                ms[i].push_back(s * 1e3);
        }
    std::vector<Spread> out;
    for (auto &v : ms)
        out.push_back(spreadOf(std::move(v)));
    return out;
}

std::string
fmtSpread(const Spread &s)
{
    if (s.median < 0)
        return "n/a";
    return fmt(s.median, "%.3f") + "+-" + fmt(s.iqr / 2, "%.3f");
}

} // namespace

int
main()
{
    Host host = Host::probe();
    host.print();
    const bool have_cc = host.nativeToolchain;
    if (!have_cc)
        std::printf("(no C toolchain: native columns are n/a)\n");

    ir::Program p = workloads::makeHarris({256, 256});
    std::vector<Variant> variants = {
        {"full", true, 0, 4.0, true},
        {"no-promotion", false, 0, 4.0, true},
        {"dilated", true, 1, 4.0, true},
        {"no-guard", true, 0, 1e30, true},
        {"tiling-only", true, 0, 4.0, false},
    };

    std::printf("\n=== Ablation (Harris, 256x256, tiles 32x128) ===\n");
    printRow("variant", {"model-32t(ms)", "dram(MB)", "instances",
                         "compile", "native(ms)"},
             14);
    std::vector<std::vector<std::string>> rows;
    std::vector<codegen::AstPtr> asts;
    for (const auto &v : variants) {
        driver::PipelineOptions popts;
        popts.strategy =
            v.fusion ? Strategy::Ours : Strategy::SmartFuse;
        popts.tileSizes = {32, 128};
        popts.footprintDilation = v.dilation;
        popts.maxRecompute = v.maxRecompute;
        popts.gen.promoteIntermediates = v.promote;
        auto state = driver::Pipeline(popts).run(p);

        exec::Buffers buf(p);
        defaultInit(p, buf);
        memsim::MemoryHierarchy mem(
            memsim::CacheConfig{16 * 1024, 64, 8, "L1"},
            memsim::CacheConfig{256 * 1024, 64, 16, "L2"});
        for (size_t t = 0; t < p.tensors().size(); ++t) {
            mem.addSpace(t, p.tensorSize(t));
            mem.addSpace(p.tensors().size() + t, p.tensorSize(t));
        }
        auto stats = exec::run(p, state.ast, buf,
                               [&](int space, int64_t off, bool w) {
                                   mem.access(space, off, w);
                               });
        rows.push_back(
            {fmt(perfmodel::modeledCpuMs(stats, mem.stats(), 32),
                 "%.3f"),
             fmt(mem.stats().dramBytes / 1e6),
             fmt(double(stats.instances), "%.0f"),
             fmt(state.compileMs())});
        asts.push_back(state.ast);
    }
    std::vector<Spread> native(asts.size());
    if (have_cc)
        native = nativeMs(p, asts);
    for (size_t i = 0; i < variants.size(); ++i) {
        rows[i].push_back(fmtSpread(native[i]));
        printRow(variants[i].name, rows[i], 14);
    }
    std::printf("\nNote: Harris' stages write out of place, so the "
                "no-promotion variant is\nsemantically safe here "
                "(see GenOptions::promoteIntermediates).\n");

    // Promotion vs --no-promote, native tier, registry defaults.
    std::printf("\n=== Promotion on the native tier (registry "
                "defaults, median+-IQR/2 of %d warm runs, ms) ===\n",
                kReps);
    printRow("workload",
             {"promote", "no-promote", "ratio", "copy-in None"}, 14);
    for (const char *name : {"conv2d", "bilateral", "camera", "harris",
                             "laplacian", "interp", "unsharp",
                             "equake"}) {
        const driver::WorkloadSpec *spec = driver::findWorkload(name);
        ir::Program prog = spec->make(spec->defaults);
        driver::PipelineOptions popts;
        popts.tileSizes = spec->defaultTiles;
        auto with = driver::Pipeline(popts).run(prog);
        const driver::PassStat *cg = with.stats.find("Codegen");
        int64_t none = cg ? cg->counter("copy_in_elided") : 0;
        int64_t total = none + (cg ? cg->counter("copy_in_full") : 0);
        // conv2d's producer scales A in place: re-running it on the
        // halo of a neighbouring tile without a scratchpad would
        // scale the global A twice, so no-promote is unsafe there.
        std::vector<codegen::AstPtr> asts;
        asts.push_back(with.ast);
        if (std::string(name) != "conv2d") {
            popts.gen.promoteIntermediates = false;
            asts.push_back(driver::Pipeline(popts).run(prog).ast);
        }
        std::vector<Spread> ms(2);
        if (have_cc) {
            std::vector<Spread> got = nativeMs(prog, asts);
            std::copy(got.begin(), got.end(), ms.begin());
        }
        const Spread &a = ms[0], &b = ms[1];
        printRow(name,
                 {fmtSpread(a), fmtSpread(b),
                  a.median > 0 && b.median > 0
                      ? fmt(a.median / b.median, "%.2fx")
                      : "n/a",
                  std::to_string(none) + "/" + std::to_string(total)},
                 14);
    }
    std::printf("\nratio = promote / no-promote: above 1x, promotion "
                "still costs more than\nit saves on this host.\n");
    return 0;
}
