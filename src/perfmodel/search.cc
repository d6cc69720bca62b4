#include "perfmodel/search.hh"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <numeric>

#include "codegen/generate.hh"
#include "core/compose.hh"
#include "exec/bytecode.hh"
#include "memsim/cache.hh"
#include "perfmodel/parallel.hh"
#include "pres/op_cache.hh"
#include "support/thread_pool.hh"
#include "support/timer.hh"

namespace polyfuse {
namespace perfmodel {

namespace {

/** Largest tensor extent: candidates beyond it are pointless. */
int64_t
maxExtent(const ir::Program &p)
{
    int64_t best = 1;
    for (size_t t = 0; t < p.tensors().size(); ++t)
        for (unsigned d = 0; d < p.tensor(t).rank; ++d)
            best = std::max(best, p.tensorExtent(t, d));
    return best;
}

/**
 * Shared evaluation engine of both drivers. Sequential runs keep
 * one PresCtx + OpCache alive across every run() call (all rounds
 * of a guided search included), so repeated dependence compositions
 * are memoized across the whole search; parallel runs split each
 * batch into contiguous chunks, one private context per chunk, and
 * aggregate the per-worker fm::Counters -- sequential and parallel
 * searches report comparable cache stats (the jobs > 1 path used to
 * silently report zeros).
 *
 * Cold/warm wall times are tracked per context (the first
 * evaluation in a context pays the cache-cold cost) to feed the
 * savedMsEstimate heuristic.
 */
class BatchEvaluator
{
  public:
    explicit BatchEvaluator(const SearchInput &in)
        : in_(in),
          jobs_(in.config.jobs == 0 ? ThreadPool::defaultThreads()
                                    : in.config.jobs)
    {
        shared_.cache = &sharedCache_;
    }

    /** Evaluate in_.candidates[indices[k]] into out[k]. Order of
     *  results is the order of @p indices regardless of jobs. */
    void
    run(const std::vector<size_t> &indices, std::vector<double> &out)
    {
        out.assign(indices.size(), 0.0);
        if (indices.empty())
            return;
        if (jobs_ <= 1 || indices.size() <= 1) {
            pres::fm::ScopedCtx scope(shared_);
            for (size_t k = 0; k < indices.size(); ++k) {
                Timer t;
                out[k] = evaluateCandidate(
                    in_.program, in_.graph,
                    in_.candidates[indices[k]], in_.init,
                    in_.config.threads, in_.config.targetParallelism);
                double ms = t.milliseconds();
                if (!sawCold_) {
                    sawCold_ = true;
                    coldMs_ += ms;
                    ++coldN_;
                } else {
                    warmMs_ += ms;
                    ++warmN_;
                }
            }
            return;
        }

        // Pool jobs must not throw; hold the first failure and
        // rethrow on the caller thread (matching the sequential
        // error behaviour).
        std::exception_ptr failure;
        std::mutex mu;
        size_t chunk = (indices.size() + jobs_ - 1) / jobs_;
        {
            ThreadPool pool(jobs_);
            for (size_t c0 = 0; c0 < indices.size(); c0 += chunk) {
                size_t c1 = std::min(c0 + chunk, indices.size());
                pool.submit([&, c0, c1] {
                    pres::fm::PresCtx ctx;
                    pres::OpCache cache;
                    ctx.cache = &cache;
                    pres::fm::ScopedCtx scope(ctx);
                    double cold = 0, warm = 0;
                    unsigned coldn = 0, warmn = 0;
                    try {
                        for (size_t k = c0; k < c1; ++k) {
                            Timer t;
                            out[k] = evaluateCandidate(
                                in_.program, in_.graph,
                                in_.candidates[indices[k]], in_.init,
                                in_.config.threads,
                                in_.config.targetParallelism);
                            double ms = t.milliseconds();
                            if (k == c0) {
                                cold += ms;
                                ++coldn;
                            } else {
                                warm += ms;
                                ++warmn;
                            }
                        }
                    } catch (...) {
                        std::lock_guard<std::mutex> lock(mu);
                        if (!failure)
                            failure = std::current_exception();
                    }
                    std::lock_guard<std::mutex> lock(mu);
                    pooled_ += ctx.counters;
                    coldMs_ += cold;
                    coldN_ += coldn;
                    warmMs_ += warm;
                    warmN_ += warmn;
                });
            }
            pool.wait();
        }
        if (failure)
            std::rethrow_exception(failure);
    }

    /** Fold the evaluation stats into @p o. */
    void
    finish(SearchOutcome &o)
    {
        o.counters = pooled_;
        o.counters += shared_.counters;
        if (o.counters.cacheHits > 0 && coldN_ > 0 && warmN_ > 0) {
            double cold_avg = coldMs_ / coldN_;
            double warm_avg = warmMs_ / warmN_;
            if (cold_avg > warm_avg)
                o.savedMsEstimate = (cold_avg - warm_avg) * warmN_;
        }
    }

  private:
    const SearchInput &in_;
    unsigned jobs_;
    pres::fm::PresCtx shared_; ///< sequential path, search-lifetime
    pres::OpCache sharedCache_;
    pres::fm::Counters pooled_; ///< parallel workers, aggregated
    bool sawCold_ = false;
    double coldMs_ = 0, warmMs_ = 0;
    unsigned coldN_ = 0, warmN_ = 0;
};

} // namespace

const char *
searchModeName(SearchMode mode)
{
    return mode == SearchMode::Guided ? "guided" : "exhaustive";
}

bool
parseSearchMode(const std::string &text, SearchMode *out)
{
    if (text == "exhaustive") {
        *out = SearchMode::Exhaustive;
        return true;
    }
    if (text == "guided") {
        *out = SearchMode::Guided;
        return true;
    }
    return false;
}

memsim::CacheConfig
tuneL1Config()
{
    return memsim::CacheConfig{16 * 1024, 64, 8, "L1"};
}

memsim::CacheConfig
tuneL2Config()
{
    return memsim::CacheConfig{256 * 1024, 64, 16, "L2"};
}

memsim::MemoryHierarchy
tuningHierarchy(const ir::Program &p)
{
    memsim::MemoryHierarchy mem(tuneL1Config(), tuneL2Config());
    for (size_t t = 0; t < p.tensors().size(); ++t) {
        mem.addSpace(int(t), p.tensorSize(int(t)));
        mem.addSpace(int(p.tensors().size() + t),
                     p.tensorSize(int(t)));
    }
    return mem;
}

double
evaluateCandidate(const ir::Program &p,
                  const deps::DependenceGraph &g,
                  const std::vector<int64_t> &tiles,
                  const std::function<void(exec::Buffers &)> &init,
                  unsigned threads, unsigned target_parallelism)
{
    core::ComposeOptions copts;
    copts.tileSizes = tiles;
    copts.targetParallelism = target_parallelism;
    auto r = core::compose(p, g, copts);
    std::vector<codegen::GeneratedBand> bands;
    auto ast = codegen::generateAst(r.tree, {}, bands, g);

    exec::Buffers buf(p);
    init(buf);
    memsim::MemoryHierarchy mem = tuningHierarchy(p);
    // The bytecode tier with the batched hierarchy sink: identical
    // trace sequence to the interpreter (differentially tested),
    // at a fraction of the per-access cost.
    auto kernel = exec::BytecodeKernel::compile(p, ast);
    memsim::HierarchySink sink(mem);
    auto stats = kernel.run(buf, sink);
    return modeledCpuMs(stats, mem.stats(), threads);
}

std::vector<std::vector<int64_t>>
enumerateTileCandidates(const ir::Program &program,
                        const std::vector<int64_t> &ladder,
                        unsigned dims)
{
    int64_t limit = maxExtent(program);
    std::vector<std::vector<int64_t>> out;
    std::vector<int64_t> current;
    // Recursive ladder walk, identical order to the original
    // autotuner (outermost dimension varies slowest).
    std::function<void()> rec = [&] {
        if (current.size() == dims) {
            out.push_back(current);
            return;
        }
        for (int64_t c : ladder) {
            if (c > limit)
                continue;
            current.push_back(c);
            rec();
            current.pop_back();
        }
    };
    rec();
    return out;
}

SearchOutcome
searchExhaustive(const SearchInput &in)
{
    SearchOutcome o;
    std::vector<size_t> all(in.candidates.size());
    std::iota(all.begin(), all.end(), size_t(0));
    std::vector<double> modeled;
    BatchEvaluator ev(in);
    ev.run(all, modeled);
    ev.finish(o);
    o.measured = unsigned(in.candidates.size());
    for (size_t i = 0; i < in.candidates.size(); ++i) {
        if (o.tileSizes.empty() || modeled[i] < o.modeledMs) {
            o.modeledMs = modeled[i];
            o.tileSizes = in.candidates[i];
        }
    }
    return o;
}

SearchOutcome
searchGuided(const SearchInput &in, const ModelFit &fit)
{
    SearchOutcome o;
    const auto &cands = in.candidates;
    const size_t total = cands.size();
    if (total == 0)
        return o;

    Timer rank_timer;
    CostModel model(in.program, in.config.dims, in.config.threads);
    int64_t widest = 1;
    for (const auto &c : cands)
        if (!c.empty())
            widest = std::max(widest, c.back());

    // Model score with dimension-matching bonuses: extent-divisor
    // tiles (no ragged boundary tiles) and contiguous-innermost
    // tiles rank ahead of near-equal-scored rivals.
    std::vector<double> score(total);
    for (size_t i = 0; i < total; ++i) {
        double s = model.score(cands[i], fit);
        if (model.dividesExtents(cands[i]))
            s *= 0.97;
        if (model.innermostContiguous(cands[i], widest))
            s *= 0.95;
        score[i] = s;
    }
    std::vector<size_t> order(total);
    std::iota(order.begin(), order.end(), size_t(0));
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) {
                  if (score[a] != score[b])
                      return score[a] < score[b];
                  return a < b; // enumeration order breaks ties
              });

    // A near-miss seed jumps the ranking: measure it first.
    bool seeded = false;
    if (!in.seedTiles.empty()) {
        for (size_t i = 0; i < total; ++i) {
            if (cands[i] == in.seedTiles) {
                auto it =
                    std::find(order.begin(), order.end(), i);
                order.erase(it);
                order.insert(order.begin(), i);
                seeded = true;
                break;
            }
        }
    }
    o.modelRankMs = rank_timer.milliseconds();

    size_t k = in.config.topK
                   ? std::min<size_t>(in.config.topK, total)
                   : std::max<size_t>(3, (total + 4) / 5);
    // A seed is a trusted prior: spend half the budget confirming
    // it rather than re-exploring from scratch.
    if (seeded)
        k = std::max<size_t>(2, k / 2);
    k = std::min(k, total);

    // Successive halving over the shortlist: measure the top half,
    // then ever-smaller slices, stopping as soon as a round fails
    // to improve the best modeled time by more than 1%. Reduction
    // runs in ranking order after each (possibly parallel) round,
    // so the winner is jobs-invariant.
    BatchEvaluator ev(in);
    double best_ms = std::numeric_limits<double>::infinity();
    size_t best_idx = 0;
    bool have_best = false;
    size_t offset = 0;
    size_t round_size = (k + 1) / 2;
    while (offset < k) {
        size_t take = std::min(round_size, k - offset);
        std::vector<size_t> round(order.begin() + offset,
                                  order.begin() + offset + take);
        std::vector<double> ms;
        ev.run(round, ms);
        double prev_best =
            have_best ? best_ms
                      : std::numeric_limits<double>::infinity();
        for (size_t j = 0; j < round.size(); ++j) {
            o.samples.push_back(
                ModelSample{model.terms(cands[round[j]]), ms[j]});
            if (!have_best || ms[j] < best_ms) {
                best_ms = ms[j];
                best_idx = round[j];
                have_best = true;
            }
        }
        offset += take;
        if (prev_best !=
                std::numeric_limits<double>::infinity() &&
            best_ms > prev_best * 0.99)
            break;
        round_size = std::max<size_t>(1, (round_size + 1) / 2);
    }
    ev.finish(o);
    o.measured = unsigned(offset);
    o.tileSizes = cands[best_idx];
    o.modeledMs = best_ms;
    return o;
}

} // namespace perfmodel
} // namespace polyfuse
