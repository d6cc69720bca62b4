/**
 * @file
 * The AST executor: runs generated loop nests over real buffers.
 *
 * This header declares the Tier-0 reference interpreter (run()) and
 * the runtime storage (Buffers) shared by every execution tier. The
 * interpreter re-evaluates Expr trees and re-derives affine offsets
 * per scalar access; it is the semantic reference the faster tiers
 * (exec/bytecode.hh, exec/native.hh -- see exec/engine.hh for the
 * tier dispatch) are differentially tested against: per-iteration
 * overhead is constant across scheduling strategies, so
 * strategy-relative ratios (which is what the paper's evaluation
 * compares) are preserved, while the memory-access *pattern* is
 * exactly that of the generated code -- which is what the cache
 * simulator consumes via the trace hook.
 */

#ifndef POLYFUSE_EXEC_EXECUTOR_HH
#define POLYFUSE_EXEC_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "codegen/ast.hh"
#include "exec/trace.hh"
#include "ir/program.hh"

namespace polyfuse {
namespace exec {

/** The runtime storage of one program run. */
class Buffers
{
  public:
    /** Allocate one zero-initialized buffer per program tensor. */
    explicit Buffers(const ir::Program &program);

    /** Number of tensors (== the program's tensor count). */
    size_t numTensors() const { return data_.size(); }

    std::vector<double> &data(int tensor) { return data_.at(tensor); }
    const std::vector<double> &data(int tensor) const
    { return data_.at(tensor); }

    /** Row-major extents of a tensor. */
    const std::vector<int64_t> &extents(int tensor) const
    { return extents_.at(tensor); }

    /** Row-major strides of a tensor (innermost dim has stride 1). */
    const std::vector<int64_t> &strides(int tensor) const
    { return strides_.at(tensor); }

    /**
     * Row-major linear offset of the @p rank indices at @p idx within
     * @p tensor (bounds-checked; throws FatalError when outside).
     */
    int64_t offsetOf(int tensor, const int64_t *idx,
                     size_t rank) const;

    /** Convenience overload for callers holding a vector. */
    int64_t
    offsetOf(int tensor, const std::vector<int64_t> &idx) const
    {
        return offsetOf(tensor, idx.data(), idx.size());
    }

    /** Fill a tensor with a deterministic pseudo-random pattern. */
    void fillPattern(int tensor, uint64_t seed);

  private:
    std::vector<std::vector<double>> data_;
    std::vector<std::vector<int64_t>> extents_;
    std::vector<std::vector<int64_t>> strides_;
};

/** Counters of one execution. */
struct ExecStats
{
    uint64_t instances = 0; ///< statement instances executed
    uint64_t instancesParallel = 0; ///< instances under parallel loops
    double flops = 0;       ///< per-statement ops estimate summed
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t guardFails = 0; ///< instances suppressed by guards
    double seconds = 0;      ///< wall-clock of the run
};

/** Execute @p ast over @p buffers with the reference interpreter. */
ExecStats run(const ir::Program &program, const codegen::AstPtr &ast,
              Buffers &buffers, const TraceHook &trace = nullptr);

} // namespace exec
} // namespace polyfuse

#endif // POLYFUSE_EXEC_EXECUTOR_HH
