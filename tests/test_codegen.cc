/**
 * @file
 * Tests for AST generation and the C printers on the convolution
 * example: loop structure, tile/point loops, guards, promotion
 * scopes, and the pretty-printed code of Fig. 1(b)/Fig. 5. Every
 * schedule is produced by the driver's pass pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "codegen/cprinter.hh"
#include "driver/pipeline.hh"
#include "driver/registry.hh"
#include "pres/set.hh"
#include "workloads/conv2d.hh"

namespace polyfuse {
namespace codegen {
namespace {

class ConvCodegen : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prog_ = workloads::makeConv2D({6, 6, 3, 3});
    }

    /** Compile through the driver with the given strategy/tiles. */
    driver::CompilationState
    compile(driver::Strategy strategy, std::vector<int64_t> tiles,
            unsigned target_parallelism = 1)
    {
        driver::PipelineOptions opts;
        opts.strategy = strategy;
        opts.tileSizes = std::move(tiles);
        opts.targetParallelism = target_parallelism;
        return driver::Pipeline(opts).run(prog_);
    }

    ir::Program prog_;
};

/** Count AST nodes of a kind. */
unsigned
countNodes(const AstPtr &n, AstKind kind)
{
    if (!n)
        return 0;
    unsigned c = n->kind == kind ? 1 : 0;
    for (const auto &ch : n->children)
        c += countNodes(ch, kind);
    return c;
}

/** Maximum loop nest depth. */
unsigned
loopDepth(const AstPtr &n)
{
    if (!n)
        return 0;
    unsigned best = 0;
    for (const auto &c : n->children)
        best = std::max(best, loopDepth(c));
    return best + (n->kind == AstKind::For ? 1 : 0);
}

TEST_F(ConvCodegen, InitialTreeProducesThreeNests)
{
    AstPtr ast = compile(driver::Strategy::Naive, {}).ast;
    // S0: 2 loops; S1/S2: 2 + 2; S3: 2 -> 4 statements total.
    EXPECT_EQ(countNodes(ast, AstKind::Stmt), 4u);
    EXPECT_EQ(loopDepth(ast), 4u);
    EXPECT_EQ(countNodes(ast, AstKind::Alloc), 0u);
}

TEST_F(ConvCodegen, ComposedAstHasTilePointLoopsAndPromotion)
{
    AstPtr ast = compile(driver::Strategy::Ours, {2, 2}).ast;
    // Tile loops (2) + S0 copy loops + point loops + reduction loops.
    EXPECT_EQ(countNodes(ast, AstKind::Stmt), 4u);
    EXPECT_EQ(countNodes(ast, AstKind::Alloc), 1u);
    // Two tile loops at the top.
    unsigned tile_loops = 0;
    std::function<void(const AstPtr &)> walk =
        [&](const AstPtr &n) {
            if (n->kind == AstKind::For && n->tileLoop)
                ++tile_loops;
            for (const auto &c : n->children)
                walk(c);
        };
    walk(ast);
    EXPECT_EQ(tile_loops, 2u);
}

TEST_F(ConvCodegen, PromotionBoxMatchesFootprint)
{
    AstPtr ast = compile(driver::Strategy::Ours, {2, 2}).ast;
    // Find the Alloc node.
    AstPtr alloc;
    std::function<void(const AstPtr &)> walk =
        [&](const AstPtr &n) {
            if (n->kind == AstKind::Alloc)
                alloc = n;
            for (const auto &c : n->children)
                walk(c);
        };
    walk(ast);
    ASSERT_TRUE(alloc);
    ASSERT_EQ(alloc->promotions.size(), 1u);
    EXPECT_EQ(alloc->promotions[0].tensor, prog_.tensorId("A"));
    // Box per dim: KH + T2 - 1 = 4 points (checked at runtime by the
    // executor; here just verify the bounds exist per dim).
    EXPECT_EQ(alloc->promotions[0].boxLo.size(), 2u);
    EXPECT_FALSE(alloc->promotions[0].boxLo[0].empty());
    EXPECT_FALSE(alloc->promotions[0].boxHi[0].empty());
}

TEST_F(ConvCodegen, OpenMPPrinterEmitsPragmasAndTiles)
{
    auto state = compile(driver::Strategy::Ours, {2, 2});
    std::string code = printCode(prog_, state.ast);
    EXPECT_NE(code.find("#pragma omp parallel for"),
              std::string::npos);
    EXPECT_NE(code.find("pf_fdiv"), std::string::npos);
    EXPECT_NE(code.find("S2("), std::string::npos);
    EXPECT_NE(code.find("scratchpad for A"), std::string::npos);
    // The skipped original S0 nest is not emitted on its own: S0
    // appears only once (inside the fused tile).
    size_t first = code.find("S0(");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(code.find("S0(", first + 1), std::string::npos);
}

TEST_F(ConvCodegen, CudaPrinterAnnotatesGridMapping)
{
    auto state =
        compile(driver::Strategy::Ours, {2, 2}, /*parallelism=*/2);
    std::string code =
        printCode(prog_, state.ast, PrintStyle::Cuda);
    EXPECT_NE(code.find("blockIdx"), std::string::npos);
}

TEST_F(ConvCodegen, MaxfuseAstCarriesShiftedBindings)
{
    // Empty tile sizes: maxfuse without tiling, as in Fig. 1(c).
    auto state = compile(driver::Strategy::MaxFuse, {});
    std::string code = printCode(prog_, state.ast);
    // Shifted statements index with an offset (e.g. "c0 - 2").
    EXPECT_NE(code.find(" - 2"), std::string::npos);
    // Fused loop is serial: no parallel pragma on the fused nest.
    EXPECT_EQ(code.find("#pragma omp parallel for"),
              std::string::npos);
}

TEST_F(ConvCodegen, GuardsAppearForUnionBounds)
{
    // maxfuse merges S0 (domain HxW) with S1..S3 (smaller domain):
    // guards must protect the smaller statements.
    auto state = compile(driver::Strategy::MaxFuse, {});
    unsigned guarded = 0;
    std::function<void(const AstPtr &)> walk =
        [&](const AstPtr &n) {
            if (n->kind == AstKind::Stmt && !n->guards.empty())
                ++guarded;
            for (const auto &c : n->children)
                walk(c);
        };
    walk(state.ast);
    EXPECT_GT(guarded, 0u);
}

TEST(LoopImpliedGuards, HarrisRunsEveryStatementUnguarded)
{
    // Every domain row of harris's statements is a bound of a loop
    // around them or true at its sizes, so no Stmt node keeps a
    // guard.
    const driver::WorkloadSpec *spec = driver::findWorkload("harris");
    ASSERT_NE(spec, nullptr);
    ir::Program p = spec->make(spec->defaults);
    driver::PipelineOptions popts;
    popts.tileSizes = spec->defaultTiles;
    auto state = driver::Pipeline(popts).run(p);
    unsigned stmts = 0, guarded = 0;
    std::function<void(const AstPtr &)> walk =
        [&](const AstPtr &n) {
            if (n->kind == AstKind::Stmt) {
                ++stmts;
                guarded += !n->guards.empty();
            }
            for (const auto &c : n->children)
                walk(c);
        };
    walk(state.ast);
    EXPECT_GT(stmts, 0u);
    EXPECT_EQ(guarded, 0u);
}

// ------------------------------------------------------------------
// Static promotion coverage: every Promotion box contains the read
// and write footprint of its scope, proven with pres set inclusion
// (parametric in the loop variables enclosing the scope, at the
// program's parameter values) instead of relying on the runtime
// "scratchpad read outside promoted box" check.
// ------------------------------------------------------------------

/**
 * Sets over the tensor index of one promotion, parametric in the loop
 * vars enclosing its scope: columns [index (rank) | inner loop vars |
 * outer loop vars (params) | 1].
 */
class BoxCoverage
{
  public:
    BoxCoverage(const ir::Program &p, unsigned rank, unsigned nv,
                const std::vector<int> &outer)
        : prog_(p), rank_(rank), col_(nv, -1)
    {
        std::vector<std::string> params;
        for (int v : outer) {
            col_[v] = int(params.size());
            params.push_back("v" + std::to_string(v));
        }
        for (unsigned v = 0; v < nv; ++v)
            if (col_[v] < 0)
                col_[v] = int(inner_++);
        // Outer columns sit after the inner ones.
        for (int v : outer)
            col_[v] += int(inner_);
        for (unsigned v = 0; v < nv; ++v)
            col_[v] += int(rank);
        space_ = pres::Space::forSet("box", rank + inner_, params);
        width_ = rank + nv + 1;
        for (const auto &name : p.params())
            paramValues_.push_back(p.paramValue(name));
    }

    /** The cells access @p acc of Stmt node @p n touches at the
     *  instances it runs: the loop-var values @p loops (every For
     *  node around @p n) admit and its remaining guards hold. Inner
     *  vars are projected out. */
    pres::Set
    footprint(const AstNode &n, const ir::Access &acc,
              const std::vector<const AstNode *> &loops) const
    {
        pres::BasicSet base(space_);
        for (const auto &g : n.guards) {
            pres::Constraint c(g.isEq, row());
            for (size_t v = 0; v < g.varCoeffs.size(); ++v)
                c.coeffs[col_[v]] = g.varCoeffs[v];
            c.coeffs.back() = g.constant + paramSum(g.paramCoeffs);
            base.addConstraint(c);
        }
        const pres::Space &asp = acc.rel.space();
        for (const auto &ac : acc.rel.constraints()) {
            pres::Constraint c(ac.isEq, row());
            int64_t k = ac.constant();
            for (unsigned i = 0; i < asp.numIn(); ++i) {
                // Instance dim i is loop var + offset.
                const auto &[var, off] = n.bindings[i];
                c.coeffs[col_[var]] += ac.coeffs[asp.inCol(i)];
                k += ac.coeffs[asp.inCol(i)] * off;
            }
            for (unsigned j = 0; j < rank_; ++j)
                c.coeffs[j] = ac.coeffs[asp.outCol(j)];
            for (unsigned q = 0; q < asp.numParams(); ++q)
                k += ac.coeffs[asp.paramCol(q)] *
                     prog_.paramValue(asp.params()[q]);
            c.coeffs.back() = k;
            base.addConstraint(c);
        }
        pres::Set set(base);
        for (const AstNode *loop : loops) {
            set = set.intersect(loopSide(*loop, true));
            set = set.intersect(loopSide(*loop, false));
        }
        // Projection over-approximates at worst: still sound here.
        pres::Set out;
        for (const auto &piece : set.pieces())
            out.addPiece(piece.projectOut(rank_, inner_));
        return out;
    }

    /** The cells dim @p d of the box admits from below (@p lower)
     *  or above: a union over the bound's alternatives. */
    pres::Set
    side(const std::vector<BoundAlt> &alts, unsigned d,
         bool lower) const
    {
        pres::Space sp = pres::Space::forSet("box", rank_,
                                             space_.params());
        pres::Set out;
        for (const auto &alt : alts) {
            pres::BasicSet piece(sp);
            for (const auto &t : alt) {
                // lower: idx >= ceil(e / div); upper: idx <= floor.
                int64_t sign = lower ? -1 : 1;
                pres::Constraint c(false, pres::CoeffRow(
                                              sp.numCols(), 0));
                c.coeffs[d] = -sign * t.div;
                for (size_t v = 0; v < t.varCoeffs.size(); ++v)
                    if (t.varCoeffs[v] != 0)
                        c.coeffs[col_[v] - inner_] =
                            sign * t.varCoeffs[v];
                c.coeffs.back() =
                    sign * (t.constant + paramSum(t.paramCoeffs));
                piece.addConstraint(c);
            }
            out.addPiece(piece);
        }
        return out;
    }

  private:
    pres::CoeffRow row() const { return pres::CoeffRow(width_, 0); }

    /** The values For node @p loop gives its var from below
     *  (@p lower) or above: a union over the bound's alternatives,
     *  each the conjunction of its terms. */
    pres::Set
    loopSide(const AstNode &loop, bool lower) const
    {
        int64_t sign = lower ? -1 : 1;
        pres::Set out;
        for (const auto &alt : lower ? loop.lb : loop.ub) {
            pres::BasicSet piece(space_);
            for (const auto &t : alt) {
                // lower: div*v - e >= 0; upper: e - div*v >= 0.
                pres::Constraint c(false, row());
                for (size_t v = 0; v < t.varCoeffs.size(); ++v)
                    c.coeffs[col_[v]] = sign * t.varCoeffs[v];
                c.coeffs[col_[loop.var]] -= sign * t.div;
                c.coeffs.back() =
                    sign * (t.constant + paramSum(t.paramCoeffs));
                piece.addConstraint(c);
            }
            out.addPiece(piece);
        }
        return out;
    }

    int64_t
    paramSum(const std::vector<int64_t> &coeffs) const
    {
        int64_t k = 0;
        for (size_t q = 0; q < coeffs.size(); ++q)
            k += coeffs[q] * paramValues_[q];
        return k;
    }

    const ir::Program &prog_;
    unsigned rank_;
    unsigned inner_ = 0;
    unsigned width_ = 0;
    std::vector<int> col_; ///< column of each loop var
    pres::Space space_;
    std::vector<int64_t> paramValues_;
};

/** Nodes paired with the For nodes around each. */
using NodesInLoops =
    std::vector<std::pair<const AstNode *, std::vector<const AstNode *>>>;

/** Nodes of @p kind under @p n, each with the For nodes around it
 *  (@p loops holds those around @p n). */
void
collectNodes(const AstPtr &n, AstKind kind,
             std::vector<const AstNode *> &loops, NodesInLoops &out)
{
    if (!n)
        return;
    if (n->kind == kind)
        out.emplace_back(n.get(), loops);
    if (n->kind == AstKind::For)
        loops.push_back(n.get());
    for (const auto &c : n->children)
        collectNodes(c, kind, loops, out);
    if (n->kind == AstKind::For)
        loops.pop_back();
}

TEST(PromotionBoxes, CoverEveryAccessOfTheirScopeOnTheRegistry)
{
    unsigned proven = 0;
    for (const auto &spec : driver::workloadRegistry()) {
        ir::Program p = spec.make(spec.defaults);
        for (driver::Strategy strategy :
             {driver::Strategy::Ours, driver::Strategy::PolyMage}) {
            driver::PipelineOptions popts;
            popts.strategy = strategy;
            popts.tileSizes = spec.defaultTiles;
            auto state = driver::Pipeline(popts).run(p);
            unsigned nv = unsigned(std::max(state.ast->numLoopVars, 0));
            std::vector<const AstNode *> loops;
            NodesInLoops allocs;
            collectNodes(state.ast, AstKind::Alloc, loops, allocs);
            for (auto &[alloc, around] : allocs) {
                std::vector<int> outer;
                for (const AstNode *loop : around)
                    outer.push_back(loop->var);
                NodesInLoops stmts;
                for (const auto &c : alloc->children)
                    collectNodes(c, AstKind::Stmt, around, stmts);
                for (const Promotion &promo : alloc->promotions) {
                    unsigned rank = p.tensor(promo.tensor).rank;
                    SCOPED_TRACE(std::string(spec.name) + " / " +
                                 driver::strategyName(strategy) +
                                 " / " + p.tensor(promo.tensor).name);
                    BoxCoverage cov(p, rank, nv, outer);
                    std::vector<pres::Set> sides;
                    for (unsigned d = 0; d < rank; ++d) {
                        sides.push_back(
                            cov.side(promo.boxLo[d], d, true));
                        sides.push_back(
                            cov.side(promo.boxHi[d], d, false));
                    }
                    for (const auto &[n, stmt_loops] : stmts) {
                        const ir::Statement &s = p.statement(n->stmt);
                        for (const auto &acc : s.accesses()) {
                            if (acc.tensor != promo.tensor)
                                continue;
                            pres::Set fp =
                                cov.footprint(*n, acc, stmt_loops);
                            for (const pres::Set &side : sides)
                                EXPECT_TRUE(fp.isSubset(side))
                                    << s.name() << " escapes the box";
                        }
                    }
                    ++proven;
                }
            }
        }
    }
    // 50 promotions under `ours` alone; PolyMage adds more.
    EXPECT_GE(proven, 50u);
}

} // namespace
} // namespace codegen
} // namespace polyfuse
