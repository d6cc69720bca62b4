/**
 * @file
 * The analytic tile-size cost model behind guided autotuning: scores
 * a candidate tile vector from the program's access structure alone,
 * with no composition, codegen or simulation per candidate. The
 * model is the measurement-replacement half of ROADMAP item 3 (the
 * model-based tile selection of arXiv 1909.07190): rank all
 * candidates with the model, measure only the top of the ranking.
 *
 * Features are extracted once per program (O(statements x dims)):
 * per-statement iteration-box extents and per-access index
 * coefficient rows. A candidate is then scored in O(statements x
 * dims) arithmetic from four ms-dimensioned terms:
 *
 *   compute   flop count / sustained rate (candidate-invariant, but
 *             anchors the fit's scale)
 *   mem       access count x latency(per-tile footprint): the
 *             footprint volume of one tile -- eq. (4)/(5) evaluated
 *             on the box approximation, |coeff|-weighted tile spans
 *             plus halos -- interpolated against the L1/L2
 *             capacities of the tuning hierarchy (the reuse-distance
 *             proxy: a footprint that fits L1 hits at L1 latency, a
 *             spilling one pays L2/DRAM latency)
 *   traffic   tiles x per-tile footprint bytes / DRAM bandwidth
 *             (halo bytes are re-streamed per tile, so undersized
 *             tiles pay here)
 *   tile      tile count (loop overhead and parallel-grain term)
 *
 * The predicted time is a non-negative linear combination of the
 * terms. The coefficients (ModelFit) are CALIBRATED: fitModel()
 * least-squares fits them against really-measured samples
 * (compose + codegen + bytecode + memsim evaluations, the same
 * bytecode wall-clock the tuner minimizes), and the fit is
 * persisted in the TuneDb file so every cold search sharpens later
 * rankings. defaultModelFit() is the committed calibration:
 * the coefficients of a registry-wide fit (bench_autotune --fit)
 * checked in as code so a db-less guided search still ranks well.
 */

#ifndef POLYFUSE_PERFMODEL_MODEL_HH
#define POLYFUSE_PERFMODEL_MODEL_HH

#include <cstdint>
#include <vector>

#include "ir/program.hh"

namespace polyfuse {
namespace perfmodel {

/** Calibrated term weights of the cost model. */
struct ModelFit
{
    double cCompute = 0;
    double cMem = 0;
    double cTraffic = 0;
    double cTile = 0;
    /** Measured samples behind this fit (0 = not calibrated; use
     *  defaultModelFit() instead). */
    uint64_t samples = 0;
};

/** The committed registry-wide calibration (see file comment). */
ModelFit defaultModelFit();

/** Raw per-candidate features, each already in milliseconds-like
 *  units so the fitted weights stay O(1). */
struct ModelTerms
{
    double compute = 0;
    double mem = 0;
    double traffic = 0;
    double tile = 0;
};

/** dot(fit, terms): the modeled time of one candidate. */
double predictMs(const ModelTerms &terms, const ModelFit &fit);

/** One measured observation for calibration. */
struct ModelSample
{
    ModelTerms terms;
    double measuredMs = 0;
};

/**
 * Least-squares fit of the term weights against @p samples,
 * non-negativity enforced by clamp-and-refit. @p prior is blended
 * in by sample count (so an incremental re-fit cannot be yanked
 * around by one small search); pass samples == 0 to fit fresh.
 * Returns @p prior unchanged when the system is degenerate (fewer
 * than 4 usable samples or a singular normal matrix).
 */
ModelFit fitModel(const std::vector<ModelSample> &samples,
                  const ModelFit &prior);

/**
 * Per-program feature extraction + per-candidate scoring. Built
 * once per tuning call; score()/terms() are cheap and const
 * (thread-safe after construction).
 */
class CostModel
{
  public:
    /**
     * Extract features of @p program for tile vectors of length
     * @p dims evaluated at an objective of @p threads (the same
     * objective autotuning's modeledCpuMs uses).
     */
    CostModel(const ir::Program &program, unsigned dims,
              unsigned threads);

    /** The four raw terms of candidate @p tiles. */
    ModelTerms terms(const std::vector<int64_t> &tiles) const;

    /** predictMs(terms(tiles), fit). */
    double score(const std::vector<int64_t> &tiles,
                 const ModelFit &fit) const;

    /**
     * True when every tiled extent of the live-out boxes divides by
     * its tile (no ragged boundary tiles): the extent-divisor
     * preference of the dimension-matching candidate ordering.
     */
    bool dividesExtents(const std::vector<int64_t> &tiles) const;

    /**
     * True when the innermost tiled span equals the full innermost
     * extent (or the largest feasible candidate): the per-band
     * locality preference -- contiguous innermost walks first.
     */
    bool innermostContiguous(const std::vector<int64_t> &tiles,
                             int64_t widest_candidate) const;

  private:
    struct AccessFeat
    {
        int tensor = -1;
        /** |coefficient| per (tensor dim, statement dim). */
        std::vector<std::vector<int64_t>> absCoeffs;
    };

    struct StmtFeat
    {
        std::vector<int64_t> extents; ///< iteration-box per dim
        double instances = 1;         ///< box volume
        double flops = 1;             ///< instances x opsPerInstance
        unsigned accessCount = 0;     ///< loads + stores per instance
        bool liveOut = false;
        std::vector<AccessFeat> accesses;
    };

    /** Per-statement spans of one tile: min(tile, extent) on the
     *  tiled dims, the full extent below them. */
    void tileSpans(const StmtFeat &s,
                   const std::vector<int64_t> &tiles,
                   std::vector<int64_t> &spans) const;

    unsigned dims_;
    unsigned threads_;
    std::vector<StmtFeat> stmts_;
    std::vector<int64_t> tensorBytes_; ///< whole-tensor footprint cap
    std::vector<std::vector<int64_t>> tensorExtents_;
    double totalFlops_ = 0;
    double totalAccesses_ = 0;
};

} // namespace perfmodel
} // namespace polyfuse

#endif // POLYFUSE_PERFMODEL_MODEL_HH
