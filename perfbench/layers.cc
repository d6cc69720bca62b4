/**
 * @file
 * The per-layer metrics of a traced run, computed from the recorded
 * spans alone, so the numbers and the written trace always agree.
 * README.md maps each metric to the end-to-end metric and workload it
 * should move.
 */

#include <set>

#include "pfbench.hh"

namespace pfbench {

namespace {

std::vector<Span>
spansOf(const std::vector<const Recorder *> &recorders)
{
    std::vector<Span> all;
    for (const Recorder *r : recorders)
        if (r)
            for (Span &s : r->spans())
                all.push_back(std::move(s));
    return all;
}

/** Median duration (ms) of spans named @p name whose label @p key
 *  equals @p value (any when @p key is empty); 0 when none. */
double
medianSpanMs(const std::vector<Span> &spans, const std::string &name,
             const std::string &key = "", const std::string &value = "")
{
    std::vector<double> ms;
    for (const Span &s : spans)
        if (s.name == name && (key.empty() || s.label(key) == value))
            ms.push_back(s.ms());
    return median(std::move(ms));
}

/** Sum of value @p key over spans named @p name. */
double
sumOf(const std::vector<Span> &spans, const std::string &name,
      const std::string &key)
{
    double sum = 0;
    for (const Span &s : spans)
        if (s.name == name)
            sum += s.value(key);
    return sum;
}

/** Median of value @p key over spans named @p name whose label
 *  @p label_key equals @p label_value (any when empty). */
double
medianOf(const std::vector<Span> &spans, const std::string &name,
         const std::string &key, const std::string &label_key = "",
         const std::string &label_value = "")
{
    std::vector<double> v;
    for (const Span &s : spans)
        if (s.name == name &&
            (label_key.empty() || s.label(label_key) == label_value))
            v.push_back(s.value(key));
    return median(std::move(v));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

void
compileLayers(const std::vector<Span> &spans, Metrics &m)
{
    std::map<uint64_t, double> childMs;
    std::vector<const Span *> compiles;
    for (const Span &s : spans) {
        if (s.name == "driver.compileKernel")
            compiles.push_back(&s);
        else if (s.parent)
            childMs[s.parent] += s.ms();
    }
    double n = double(compiles.size());
    double elims = 0, rows = 0, hits = 0, misses = 0, downgrades = 0;
    std::vector<double> unattributed;
    for (const Span *s : compiles) {
        elims += s->value("fm_elims");
        rows += s->value("fm_rows");
        hits += s->value("op_cache_hits");
        misses += s->value("op_cache_misses");
        downgrades += s->value("downgrades");
        unattributed.push_back(s->ms() - childMs[s->id]);
    }
    m["pres.fm_elims"] = {ratio(elims, n), "count"};
    m["pres.fm_rows"] = {ratio(rows, n), "count"};
    m["pres.op_cache_hit_rate"] = {ratio(hits, hits + misses), "ratio"};
    m["deps.compute_ms"] = {medianSpanMs(spans, "ComputeDeps"), "ms"};
    m["deps.tile_graph_ms"] = {medianSpanMs(spans, "TileGraph"), "ms"};
    m["schedule.fuse_ms"] = {medianSpanMs(spans, "Fuse"), "ms"};
    m["core.compose_ms"] = {medianSpanMs(spans, "Compose"), "ms"};
    m["core.extensions"] = {ratio(sumOf(spans, "Compose", "extensions"),
                                  n),
                            "count"};
    m["codegen.codegen_ms"] = {medianSpanMs(spans, "Codegen"), "ms"};
    m["codegen.ast_nodes"] = {ratio(sumOf(spans, "Codegen", "ast_nodes"),
                                    n),
                              "count"};
    m["driver.lower_ms"] = {medianSpanMs(spans, "LowerBytecode"), "ms"};
    m["driver.unattributed_ms"] = {median(unattributed), "ms"};
    m["driver.downgrades"] = {downgrades, "count"};
    for (const auto &spec : driver::workloadRegistry())
        m[std::string("driver.compile_ms.") + spec.name] = {
            medianSpanMs(spans, "driver.compileKernel", "program",
                         spec.name),
            "ms"};
}

void
execProgramLayers(const std::vector<Span> &spans,
                  const std::vector<std::string> &programs, Metrics &m)
{
    for (const std::string &p : programs) {
        for (const std::string &b : execBackends()) {
            std::vector<double> v;
            for (const Span &s : spans)
                if (s.name == "driver.executeKernel" &&
                    s.label("program") == p && s.label("backend") == b)
                    v.push_back(s.ms());
            m["exec." + b + "_ms." + p] = {median(std::move(v)), "ms"};
        }
    }
}

void
execLayers(const std::vector<Span> &spans, Metrics &m)
{
    std::vector<double> firstRuns;
    std::set<std::string> parFallbacks;
    std::map<std::string, double> loads, stores;
    std::vector<double> ccMs;
    double tierFallbacks = 0;
    for (const Span &s : spans) {
        if (s.name == "exec.first_run")
            firstRuns.push_back(s.ms());
        if (s.name == "exec.NativeKernel::compile")
            ccMs.push_back(s.ms() - s.value("render_ms"));
        if (s.name != "driver.executeKernel")
            continue;
        std::string backend = s.label("backend");
        if (!s.label("par_fallback").empty())
            parFallbacks.insert(s.label("program"));
        if (backend.rfind("native", 0) == 0 && s.label("tier") != "native")
            ++tierFallbacks;
        if (backend == "bytecode") {
            // Deterministic per program: one run's counts.
            loads[s.label("program")] = s.value("loads");
            stores[s.label("program")] = s.value("stores");
        }
    }
    double sumLoads = 0, sumStores = 0;
    for (const auto &kv : loads)
        sumLoads += kv.second;
    for (const auto &kv : stores)
        sumStores += kv.second;
    m["exec.first_run_ms"] = {geomean(firstRuns), "ms"};
    m["exec.par.tiles"] = {sumOf(spans, "exec.par_probe", "tiles"),
                           "count"};
    m["exec.par.waits"] = {sumOf(spans, "exec.par_probe", "waits"),
                           "count"};
    m["exec.par_fallbacks"] = {double(parFallbacks.size()), "count"};
    m["exec.bytecode.loads"] = {sumLoads, "count"};
    m["exec.bytecode.stores"] = {sumStores, "count"};
    m["exec.native_render_ms"] = {
        medianSpanMs(spans, "exec.emitNativeSource"), "ms"};
    m["exec.native_cc_ms"] = {median(ccMs), "ms"};
    m["exec.tier_fallbacks"] = {tierFallbacks, "count"};
    m["exec.buffer_setup_ms"] = {medianSpanMs(spans, "exec.Buffers"),
                                 "ms"};
    double accesses = sumOf(spans, "memsim.run", "accesses");
    double l1 = sumOf(spans, "memsim.run", "l1_misses");
    m["memsim.dram_bytes"] = {sumOf(spans, "memsim.run", "dram_bytes"),
                              "B"};
    m["memsim.l1_miss_rate"] = {ratio(l1, accesses), "ratio"};
    m["memsim.l2_miss_rate"] = {
        ratio(sumOf(spans, "memsim.run", "l2_misses"), l1), "ratio"};
}

void
serviceLayers(const std::vector<Span> &spans, Metrics &m)
{
    const std::string call = "service.Client::call";
    std::vector<double> overhead;
    for (const Span &s : spans)
        if (s.name == call && s.label("cache") == "hit")
            overhead.push_back(s.ms() - s.value("queue_ms") -
                               s.value("compile_ms") -
                               s.value("run_ms"));
    m["service.queue_ms.p50"] = {medianOf(spans, call, "queue_ms"), "ms"};
    m["service.compile_ms.p50"] = {
        medianOf(spans, call, "compile_ms", "cache", "miss"), "ms"};
    m["service.run_ms.p50"] = {
        medianOf(spans, call, "run_ms", "cache", "hit"), "ms"};
    m["service.overhead_ms.p50"] = {median(overhead), "ms"};
    m["service.shed"] = {sumOf(spans, "service.stats", "shed"), "count"};
    m["service.errors"] = {sumOf(spans, "service.stats", "errors"),
                           "count"};
    m["service.retries"] = {sumOf(spans, "service.stats", "retries"),
                            "count"};
    double lookups = sumOf(spans, "service.stats", "cache_lookups");
    m["exec.cache.hit_rate"] = {
        ratio(sumOf(spans, "service.stats", "cache_hits"), lookups),
        "ratio"};
    m["exec.cache.lookup_us"] = {
        ratio(sumOf(spans, "service.stats", "cache_lookup_ns"), lookups) /
            1e3,
        "us"};
}

} // namespace

Metrics
layerMetrics(const LayerSources &src)
{
    Metrics m;
    compileLayers(spansOf({src.compile}), m);
    execProgramLayers(spansOf({src.fused}), fusedPrograms(), m);
    execProgramLayers(spansOf({src.unfused}), unfusedPrograms(), m);
    execLayers(spansOf(src.exec), m);
    serviceLayers(spansOf({src.serve}), m);
    return m;
}

} // namespace pfbench
