#include "codegen/generate.hh"

#include <algorithm>
#include <set>

#include "pres/fm.hh"
#include "pres/set.hh"
#include "support/intmath.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace polyfuse {
namespace codegen {

using ir::Program;
using ir::Statement;
using pres::Constraint;
using schedule::Node;
using schedule::NodeKind;
using schedule::NodePtr;

namespace {

/**
 * Scanning context of one active statement: constraint rows over the
 * columns [loop vars | own domain dims | params | 1], plus the
 * binding of already-scanned dims to loop vars.
 */
struct StmtCtx
{
    int stmt = -1;
    unsigned ndims = 0;
    std::vector<Constraint> rows;
    std::vector<int> binding;      ///< var id per dim, -1 if unbound
    std::vector<int64_t> offset;   ///< dim = var + offset
};

/**
 * An inequality vars . (loop vars) + constant >= 0 with the program
 * parameters fixed to their values, divided by the gcd of its var
 * coefficients, trailing zero coefficients dropped (so rows built at
 * different loop depths compare equal).
 */
struct FoldedRow
{
    std::vector<int64_t> vars;
    int64_t constant = 0;
};

/** Whole-scan context; copied down tree branches. */
struct GenCtx
{
    const Program *prog = nullptr;
    /** The pres context FM work is charged to; GenCtx is copied down
     *  tree branches, so the handle (not the state) is the member. */
    pres::fm::PresCtx *pres = nullptr;
    unsigned numVars = 0;
    std::vector<std::string> varNames;
    std::vector<StmtCtx> active;
    std::vector<int> bandVars; ///< loop var per enclosing band dim
    /** Rows every enclosing loop enforces at each of its iterations:
     *  a statement guard that one of them implies is not emitted. */
    std::vector<FoldedRow> loopRows;
    /** Shared tile-band side table (nullable); bands append in visit
     *  order, so an entry's index is its id. Shared across the copied
     *  contexts of sibling branches on purpose. */
    std::vector<GeneratedBand> *bands = nullptr;
    /** The program's dependences (nullable): without them every
     *  promotion copies in its full box. */
    const deps::DependenceGraph *graph = nullptr;
};

unsigned
numParams(const GenCtx &ctx)
{
    return ctx.prog->params().size();
}

/**
 * Fold vars . (loop vars) + params . (program params) + k >= 0 into a
 * FoldedRow. The parameters are fixed to their values for the reason
 * fixedFootprint gives: the AST is only ever run at them.
 */
FoldedRow
foldRow(const GenCtx &ctx, std::vector<int64_t> vars,
        const std::vector<int64_t> &params, int64_t k)
{
    const auto &names = ctx.prog->params();
    for (unsigned p = 0; p < names.size(); ++p)
        k += params[p] * ctx.prog->paramValue(names[p]);
    while (!vars.empty() && vars.back() == 0)
        vars.pop_back();
    int64_t g = 0;
    for (int64_t c : vars)
        g = gcd(g, c);
    if (g > 1) {
        for (int64_t &c : vars)
            c /= g;
        k = floorDiv(k, g);
    }
    return {std::move(vars), k};
}

/** The row bound term @p t of loop var @p v enforces:
 *  div*v - e >= 0 (@p lower) or e - div*v >= 0. */
FoldedRow
termRow(const GenCtx &ctx, const BoundTerm &t, int v, bool lower)
{
    int64_t sign = lower ? -1 : 1;
    std::vector<int64_t> vars(t.varCoeffs.size()), params;
    for (size_t i = 0; i < vars.size(); ++i)
        vars[i] = sign * t.varCoeffs[i];
    vars[v] -= sign * t.div;
    for (int64_t c : t.paramCoeffs)
        params.push_back(sign * c);
    return foldRow(ctx, std::move(vars), params, sign * t.constant);
}

/** True when guard @p g holds wherever the enclosing loops run: it
 *  is true at the parameter values, or a loop row has its variable
 *  part and a constant no larger. */
bool
loopImplied(const GenCtx &ctx, const GuardRow &g)
{
    if (g.isEq)
        return false;
    FoldedRow r = foldRow(ctx, g.varCoeffs, g.paramCoeffs, g.constant);
    if (r.vars.empty())
        return r.constant >= 0;
    for (const FoldedRow &l : ctx.loopRows)
        if (l.vars == r.vars && l.constant <= r.constant)
            return true;
    return false;
}

/** Append @p alt to a min/max over alternatives unless an equal one
 *  is already there: a copy does not change the bound. */
void
addAlt(std::vector<BoundAlt> &alts, BoundAlt alt)
{
    if (std::find(alts.begin(), alts.end(), alt) == alts.end())
        alts.push_back(std::move(alt));
}

/** Make a fresh StmtCtx from a statement's domain constraints. */
StmtCtx
freshStmtCtx(const GenCtx &ctx, int stmt_id)
{
    const Statement &s = ctx.prog->statement(stmt_id);
    StmtCtx sc;
    sc.stmt = stmt_id;
    sc.ndims = s.numDims();
    sc.binding.assign(sc.ndims, -1);
    sc.offset.assign(sc.ndims, 0);

    // Domain constraints: [dims, params, 1] -> widen with var cols.
    // The domain's params may be a subset of the program's; remap.
    const pres::Space &dsp = s.domain().space();
    unsigned np = numParams(ctx);
    for (const auto &c : s.domain().constraints()) {
        Constraint row(c.isEq,
                       pres::CoeffRow(
                           ctx.numVars + sc.ndims + np + 1, 0));
        for (unsigned d = 0; d < sc.ndims; ++d)
            row.coeffs[ctx.numVars + d] = c.coeffs[d];
        for (unsigned p = 0; p < dsp.numParams(); ++p) {
            int idx = -1;
            for (unsigned q = 0; q < np; ++q)
                if (ctx.prog->params()[q] == dsp.params()[p])
                    idx = q;
            if (idx < 0)
                panic("domain parameter not in program");
            row.coeffs[ctx.numVars + sc.ndims + idx] =
                c.coeffs[sc.ndims + p];
        }
        row.coeffs.back() = c.constant();
        sc.rows.push_back(std::move(row));
    }
    return sc;
}

/** Append a new loop-variable column to every active context. */
int
newVar(GenCtx &ctx, const std::string &name)
{
    int v = ctx.numVars;
    for (auto &sc : ctx.active)
        for (auto &row : sc.rows)
            row.coeffs.insert(row.coeffs.begin() + v, 0);
    ++ctx.numVars;
    ctx.varNames.push_back(name);
    return v;
}

/** Outcome of a bound extraction. */
enum class BoundStatus
{
    Ok,
    Empty,     ///< the member is infeasible here; contributes nothing
    Unbounded, ///< missing constraint: a code generation bug
};

/**
 * Extract the bounds of variable @p var from @p sc by eliminating
 * the statement's dims and splitting rows on the sign of the var
 * coefficient.
 */
BoundStatus
boundsOf(const GenCtx &ctx, const StmtCtx &sc, int var, BoundAlt &lo,
         BoundAlt &hi)
{
    std::vector<Constraint> rows = sc.rows;
    bool exact = true;
    // Eliminate the dim columns (highest first).
    for (unsigned d = sc.ndims; d-- > 0;) {
        if (!pres::fm::eliminateCol(*ctx.pres, rows,
                                    ctx.numVars + d, exact))
            return BoundStatus::Empty;
    }
    unsigned np = numParams(ctx);
    lo.clear();
    hi.clear();
    for (const auto &row : rows) {
        int64_t a = row.coeffs[var];
        if (a == 0)
            continue;
        auto term = [&](int64_t sign, int64_t div) {
            BoundTerm t;
            t.varCoeffs.assign(ctx.numVars, 0);
            for (unsigned v = 0; v < ctx.numVars; ++v)
                if (int(v) != var)
                    t.varCoeffs[v] = sign * row.coeffs[v];
            t.paramCoeffs.assign(np, 0);
            for (unsigned p = 0; p < np; ++p)
                t.paramCoeffs[p] = sign * row.coeffs[ctx.numVars + p];
            t.constant = sign * row.coeffs.back();
            t.div = div;
            return t;
        };
        if (row.isEq) {
            // a*v + e == 0 -> v == -e/a.
            int64_t div = a > 0 ? a : -a;
            int64_t sign = a > 0 ? -1 : 1;
            lo.push_back(term(sign, div));
            hi.push_back(term(sign, div));
        } else if (a > 0) {
            // a*v + e >= 0 -> v >= ceil(-e/a).
            lo.push_back(term(-1, a));
        } else {
            // -b*v + e >= 0 -> v <= floor(e/b).
            hi.push_back(term(1, -a));
        }
    }
    if (lo.empty() || hi.empty())
        return BoundStatus::Unbounded;
    return BoundStatus::Ok;
}

AstPtr genNode(const NodePtr &node, GenCtx ctx,
               const GenOptions &options);

/** Collect, over a tile band's body subtree, the statements that are
 *  not band members (extension-fused producers) and the tensors
 *  promoted to tile-local scratchpads. */
void
scanTileBody(const AstPtr &n, const std::set<int> &members,
             std::set<int> &extras, std::set<int> &locals)
{
    if (!n)
        return;
    if (n->kind == AstKind::Stmt) {
        if (!members.count(n->stmt))
            extras.insert(n->stmt);
        return;
    }
    if (n->kind == AstKind::Alloc)
        for (const auto &p : n->promotions)
            locals.insert(p.tensor);
    for (const auto &c : n->children)
        scanTileBody(c, members, extras, locals);
}

/** Generate the loops of a band node and recurse into its child. */
AstPtr
genBand(const NodePtr &band, GenCtx ctx, const GenOptions &options)
{
    bool tiled = !band->tileSizes.empty();
    unsigned depth = band->numBandDims();

    // Every active statement must be a member of the band.
    for (const auto &sc : ctx.active) {
        const std::string &name = ctx.prog->statement(sc.stmt).name();
        if (!band->members.count(name))
            panic("active statement " + name + " not a band member");
    }

    // Register tiled bands in the side table up front so nested bands
    // visited while generating the body get later ids.
    std::vector<GeneratedBand> *bands = ctx.bands;
    int band_id = -1;
    size_t band_idx = 0;
    if (tiled && depth > 0 && bands) {
        band_idx = bands->size();
        band_id = int(band_idx);
        GeneratedBand gb;
        gb.id = band_id;
        gb.permutable = band->permutable;
        gb.tileSizes = band->tileSizes;
        gb.coincident.assign(depth, false);
        for (unsigned k = 0;
             k < depth && k < band->coincident.size(); ++k)
            gb.coincident[k] = band->coincident[k];
        for (const auto &sc : ctx.active) {
            const std::string &name =
                ctx.prog->statement(sc.stmt).name();
            const schedule::BandMember &m = band->members.at(name);
            GeneratedBandMember gm;
            gm.stmt = sc.stmt;
            gm.dims = m.dims;
            gm.shifts = m.shifts;
            gb.members.push_back(std::move(gm));
        }
        bands->push_back(std::move(gb));
    }

    AstPtr outer;
    AstNode *attach = nullptr;
    for (unsigned k = 0; k < depth; ++k) {
        std::string vname =
            (tiled ? "t" : "c") + std::to_string(ctx.numVars);
        int v = newVar(ctx, vname);
        ctx.bandVars.push_back(v);

        for (auto &sc : ctx.active) {
            const std::string &name =
                ctx.prog->statement(sc.stmt).name();
            const schedule::BandMember &m = band->members.at(name);
            unsigned dim = m.dims[k];
            int64_t shift = m.shifts[k];
            unsigned dim_col = ctx.numVars + dim;
            unsigned ncols = sc.rows.empty()
                                 ? ctx.numVars + sc.ndims +
                                       numParams(ctx) + 1
                                 : sc.rows[0].coeffs.size();
            if (tiled) {
                int64_t size = band->tileSizes[k];
                // size*v <= dim + shift <= size*v + size - 1.
                Constraint lo(false, pres::CoeffRow(ncols, 0));
                lo.coeffs[dim_col] = 1;
                lo.coeffs[v] = -size;
                lo.coeffs.back() = shift;
                Constraint hi(false, pres::CoeffRow(ncols, 0));
                hi.coeffs[dim_col] = -1;
                hi.coeffs[v] = size;
                hi.coeffs.back() = size - 1 - shift;
                sc.rows.push_back(std::move(lo));
                sc.rows.push_back(std::move(hi));
            } else {
                // v == dim + shift.
                Constraint eq(true, pres::CoeffRow(ncols, 0));
                eq.coeffs[v] = 1;
                eq.coeffs[dim_col] = -1;
                eq.coeffs.back() = -shift;
                sc.rows.push_back(std::move(eq));
                sc.binding[dim] = v;
                sc.offset[dim] = -shift;
            }
        }

        AstPtr loop = astFor(v, vname);
        loop->parallel = k < band->coincident.size() &&
                         band->coincident[k];
        loop->tileLoop = tiled;
        loop->tileSize = tiled ? band->tileSizes[k] : 0;
        loop->permutable = band->permutable;
        loop->bandId = band_id;
        loop->bandLevel = band_id >= 0 ? int(k) : -1;
        if (band_id >= 0)
            (*bands)[band_idx].vars.push_back(v);
        for (const auto &sc : ctx.active) {
            BoundAlt lo, hi;
            BoundStatus st = boundsOf(ctx, sc, v, lo, hi);
            if (st == BoundStatus::Empty)
                continue;
            if (st == BoundStatus::Unbounded)
                panic("unbounded loop in code generation");
            addAlt(loop->lb, std::move(lo));
            addAlt(loop->ub, std::move(hi));
        }
        if (loop->lb.empty()) {
            // Nothing executes here: the loops built so far are
            // discarded, so drop the (still-last) side-table entry.
            if (band_id >= 0)
                bands->pop_back();
            return astBlock();
        }
        // A side with one alternative is the max (lower) or min
        // (upper) of its terms, so every term holds at every
        // iteration.
        for (bool lower : {true, false}) {
            const std::vector<BoundAlt> &alts =
                lower ? loop->lb : loop->ub;
            if (alts.size() == 1)
                for (const BoundTerm &t : alts[0])
                    ctx.loopRows.push_back(termRow(ctx, t, v, lower));
        }

        if (!outer) {
            outer = loop;
        } else {
            attach->children.push_back(loop);
        }
        attach = loop.get();
    }

    AstPtr body = genNode(band->onlyChild(), std::move(ctx), options);
    if (band_id >= 0) {
        GeneratedBand &gb = (*bands)[band_idx];
        std::set<int> member_stmts, extras, locals;
        for (const auto &m : gb.members)
            member_stmts.insert(m.stmt);
        scanTileBody(body, member_stmts, extras, locals);
        gb.extraStmts.assign(extras.begin(), extras.end());
        gb.localTensors.assign(locals.begin(), locals.end());
    }
    if (!attach)
        return body; // zero-dimensional band
    attach->children.push_back(body);
    return outer;
}

/** The statements of every Stmt node under @p n. */
void
collectStmts(const AstPtr &n, std::set<int> &out)
{
    if (!n)
        return;
    if (n->kind == AstKind::Stmt)
        out.insert(n->stmt);
    for (const auto &c : n->children)
        collectStmts(c, out);
}

/**
 * The footprint of access @p acc of active statement @p sc over one
 * instance of the enclosing loops: @p rows over [vars | tensor dims
 * | params | 1], the statement dims projected out. False when the
 * access never executes here; @p exact turns false when the
 * projection over-approximates.
 */
bool
accessFootprint(const GenCtx &ctx, const StmtCtx &sc,
                const ir::Access &acc, unsigned rank,
                std::vector<Constraint> &rows, bool &exact)
{
    unsigned np = numParams(ctx);
    unsigned nd = sc.ndims;
    unsigned total = ctx.numVars + nd + rank + np + 1;
    rows.clear();
    for (const auto &r : sc.rows) {
        Constraint row(r.isEq, pres::CoeffRow(total, 0));
        for (unsigned i = 0; i < ctx.numVars + nd; ++i)
            row.coeffs[i] = r.coeffs[i];
        for (unsigned p = 0; p < np + 1; ++p)
            row.coeffs[ctx.numVars + nd + rank + p] =
                r.coeffs[ctx.numVars + nd + p];
        rows.push_back(std::move(row));
    }
    // Access relation rows.
    const pres::Space &asp = acc.rel.space();
    for (const auto &c : acc.rel.constraints()) {
        Constraint row(c.isEq, pres::CoeffRow(total, 0));
        for (unsigned i = 0; i < nd; ++i)
            row.coeffs[ctx.numVars + i] = c.coeffs[asp.inCol(i)];
        for (unsigned j = 0; j < rank; ++j)
            row.coeffs[ctx.numVars + nd + j] = c.coeffs[asp.outCol(j)];
        for (unsigned p = 0; p < asp.numParams(); ++p) {
            int idx = -1;
            for (unsigned q = 0; q < np; ++q)
                if (ctx.prog->params()[q] == asp.params()[p])
                    idx = q;
            if (idx < 0)
                panic("access parameter not in program");
            row.coeffs[ctx.numVars + nd + rank + idx] =
                c.coeffs[asp.paramCol(p)];
        }
        row.coeffs.back() = c.constant();
        rows.push_back(std::move(row));
    }
    // Eliminate the statement dims.
    for (unsigned d = nd; d-- > 0;)
        if (!pres::fm::eliminateCol(*ctx.pres, rows, ctx.numVars + d,
                                    exact))
            return false;
    return true;
}

/** Append the per-dim bounds of footprint @p rows (as from
 *  accessFootprint) to @p promo's box as one alternative. */
void
addBoxAlternative(const GenCtx &ctx,
                  const std::vector<Constraint> &rows, unsigned rank,
                  Promotion &promo)
{
    unsigned np = numParams(ctx);
    for (unsigned j = 0; j < rank; ++j) {
        std::vector<Constraint> jrows = rows;
        bool jex = true;
        bool jempty = false;
        for (unsigned o = rank; o-- > 0;) {
            if (o == j)
                continue;
            if (!pres::fm::eliminateCol(*ctx.pres, jrows,
                                        ctx.numVars + o, jex)) {
                jempty = true;
                break;
            }
        }
        if (jempty)
            continue;
        BoundAlt lo, hi;
        unsigned jcol = ctx.numVars; // only remaining tdim
        for (const auto &row : jrows) {
            int64_t a = row.coeffs[jcol];
            if (a == 0)
                continue;
            BoundTerm term;
            term.varCoeffs.assign(ctx.numVars, 0);
            term.paramCoeffs.assign(np, 0);
            int64_t sign = a > 0 ? -1 : 1;
            int64_t div = a > 0 ? a : -a;
            for (unsigned v = 0; v < ctx.numVars; ++v)
                term.varCoeffs[v] = sign * row.coeffs[v];
            for (unsigned pp = 0; pp < np; ++pp)
                term.paramCoeffs[pp] =
                    sign * row.coeffs[ctx.numVars + 1 + pp];
            term.constant = sign * row.coeffs.back();
            term.div = div;
            if (row.isEq) {
                lo.push_back(term);
                hi.push_back(term);
            } else if (a > 0) {
                lo.push_back(term);
            } else {
                hi.push_back(term);
            }
        }
        if (!lo.empty() && !hi.empty()) {
            addAlt(promo.boxLo[j], std::move(lo));
            addAlt(promo.boxHi[j], std::move(hi));
        }
    }
}

/**
 * Footprint @p rows (as from accessFootprint) over [tensor dims |
 * loop vars | 1], each row divided by the gcd of its coefficients.
 * The program parameters are fixed to their values: the AST is only
 * ever run at them, and symbolically the parameters are unrelated (a
 * pyramid's R1 is not known to be R / 2), which would hide every
 * coverage that relies on their relation. False when a row admits no
 * integer point, so the footprint is empty.
 */
bool
fixedFootprint(const GenCtx &ctx, const std::vector<Constraint> &rows,
               unsigned rank, std::vector<Constraint> &out)
{
    unsigned nv = ctx.numVars;
    const auto &params = ctx.prog->params();
    out.clear();
    for (const auto &r : rows) {
        Constraint c(r.isEq, pres::CoeffRow(rank + nv + 1, 0));
        for (unsigned j = 0; j < rank; ++j)
            c.coeffs[j] = r.coeffs[nv + j];
        for (unsigned v = 0; v < nv; ++v)
            c.coeffs[rank + v] = r.coeffs[v];
        int64_t k = r.coeffs.back();
        for (unsigned p = 0; p < params.size(); ++p)
            k += r.coeffs[nv + rank + p] *
                 ctx.prog->paramValue(params[p]);
        int64_t g = 0;
        for (unsigned i = 0; i < rank + nv; ++i)
            g = gcd(g, c.coeffs[i]);
        if (g == 0) {
            if (c.isEq ? k != 0 : k < 0)
                return false;
            continue; // always true
        }
        if (c.isEq && k % g != 0)
            return false;
        for (unsigned i = 0; i < rank + nv; ++i)
            c.coeffs[i] /= g;
        c.coeffs.back() = floorDiv(k, g);
        out.push_back(std::move(c));
    }
    return true;
}

/**
 * True when every read footprint lies inside the union of the
 * producers' write footprints (all as from fixedFootprint, over
 * @p rank tensor dims and @p nv loop vars).
 */
bool
readsCovered(const std::vector<std::vector<Constraint>> &reads,
             const std::vector<std::vector<Constraint>> &writes,
             unsigned rank, unsigned nv)
{
    std::vector<std::string> vars;
    for (unsigned v = 0; v < nv; ++v)
        vars.push_back("v" + std::to_string(v));
    auto toSet = [&](const std::vector<std::vector<Constraint>> &fps) {
        pres::Set out;
        for (const auto &rows : fps) {
            pres::BasicSet piece(pres::Space::forSet("box", rank, vars));
            for (const auto &c : rows)
                piece.addConstraint(c);
            out.addPiece(std::move(piece));
        }
        return out;
    };
    return toSet(reads).isSubset(toSet(writes));
}

/**
 * The cheap, program-wide half of the copy-in proof for tensor @p t:
 * no statement both reads and writes it (an in-place update reads
 * the value it replaces) and no Anti (read -> write) dependence runs
 * through it (a read that precedes an overwrite needs the old
 * value). The footprint half is decided per scope.
 */
bool
copyInMayBeDead(const GenCtx &ctx, const deps::DependenceGraph &graph,
                int t)
{
    for (const auto &s : ctx.prog->statements()) {
        if (s.writeIndex() < 0 || s.writeAccess().tensor != t)
            continue;
        for (int r : s.readIndices())
            if (s.accesses()[r].tensor == t)
                return false;
    }
    for (const auto &d : graph.all())
        if (d.kind == deps::DepKind::Anti && d.tensor == t)
            return false;
    return true;
}

/** Introduce extension statements; optionally add promotion scopes. */
AstPtr
genExtension(const NodePtr &node, GenCtx ctx, const GenOptions &options)
{
    unsigned np = numParams(ctx);
    std::vector<int> ext_stmts;
    for (const auto &piece : node->extension.pieces()) {
        const pres::Space &sp = piece.space();
        if (sp.numIn() != ctx.bandVars.size())
            panic("extension arity does not match enclosing bands");
        int stmt_id = ctx.prog->statementId(sp.outTuple());
        // Find or create the context for this statement.
        StmtCtx *sc = nullptr;
        for (auto &c : ctx.active)
            if (c.stmt == stmt_id)
                sc = &c;
        if (!sc) {
            ctx.active.push_back(freshStmtCtx(ctx, stmt_id));
            sc = &ctx.active.back();
            ext_stmts.push_back(stmt_id);
        }
        // Translate map rows: in dims -> band var columns, out dims
        // -> statement dim columns.
        for (const auto &c : piece.constraints()) {
            Constraint row(c.isEq,
                           pres::CoeffRow(
                               ctx.numVars + sc->ndims + np + 1, 0));
            for (unsigned i = 0; i < sp.numIn(); ++i)
                row.coeffs[ctx.bandVars[i]] = c.coeffs[sp.inCol(i)];
            for (unsigned d = 0; d < sp.numOut(); ++d)
                row.coeffs[ctx.numVars + d] = c.coeffs[sp.outCol(d)];
            for (unsigned p = 0; p < sp.numParams(); ++p) {
                int idx = -1;
                for (unsigned q = 0; q < np; ++q)
                    if (ctx.prog->params()[q] == sp.params()[p])
                        idx = q;
                if (idx < 0)
                    panic("extension parameter not in program");
                row.coeffs[ctx.numVars + sc->ndims + idx] =
                    c.coeffs[sp.paramCol(p)];
            }
            row.coeffs.back() = c.constant();
            sc->rows.push_back(std::move(row));
        }
    }

    // NOTE: the composition pass guarantees one convex piece per
    // statement (simpleHull), so appending the rows above is exact.

    AstPtr body = genNode(node->onlyChild(), ctx, options);

    if (!options.promoteIntermediates || ext_stmts.empty())
        return body;

    // Promotion scopes for Temp tensors written by the introduced
    // statements: box bounds of the writes as functions of the
    // enclosing loop vars (Sec. V-B).
    AstPtr alloc = astAlloc();
    std::set<int> tensors;
    for (int sid : ext_stmts) {
        const Statement &s = ctx.prog->statement(sid);
        if (s.writeIndex() < 0)
            continue;
        int t = s.writeAccess().tensor;
        if (ctx.prog->tensor(t).kind == ir::TensorKind::Temp)
            tensors.insert(t);
    }
    // The producers whose writes can cover a read: the introduced
    // statements that the scope really executes.
    std::set<int> executed, producers;
    collectStmts(body, executed);
    for (int sid : ext_stmts)
        if (executed.count(sid))
            producers.insert(sid);
    for (int t : tensors) {
        Promotion promo;
        promo.tensor = t;
        unsigned rank = ctx.prog->tensor(t).rank;
        promo.boxLo.resize(rank);
        promo.boxHi.resize(rank);
        // The box must cover every access to the tensor under this
        // scope -- the fused producers' writes AND the consumers'
        // reads (which may touch never-written border regions whose
        // values are copied in from the global tensor). The same
        // footprints feed the copy-in plan.
        bool plan = ctx.graph && copyInMayBeDead(ctx, *ctx.graph, t);
        std::vector<std::vector<Constraint>> reads, writes;
        for (const auto &sc : ctx.active) {
            const Statement &s = ctx.prog->statement(sc.stmt);
            for (size_t a = 0; a < s.accesses().size(); ++a) {
                const ir::Access &acc = s.accesses()[a];
                if (acc.tensor != t)
                    continue;
                std::vector<Constraint> rows;
                bool exact = true;
                if (!accessFootprint(ctx, sc, acc, rank, rows, exact))
                    continue;
                addBoxAlternative(ctx, rows, rank, promo);
                if (!plan)
                    continue;
                bool read = int(a) != s.writeIndex();
                if (!read && !producers.count(sc.stmt))
                    continue;
                // An over-approximated write image could claim cells
                // nobody writes.
                if (!read && !exact) {
                    plan = false;
                    continue;
                }
                std::vector<Constraint> fp;
                if (fixedFootprint(ctx, rows, rank, fp))
                    (read ? reads : writes).push_back(std::move(fp));
            }
        }
        bool complete = true;
        for (unsigned j = 0; j < rank; ++j)
            if (promo.boxLo[j].empty() || promo.boxHi[j].empty())
                complete = false;
        if (!complete)
            continue;
        if (plan && readsCovered(reads, writes, rank, ctx.numVars))
            promo.copyIn = CopyIn::None;
        alloc->promotions.push_back(std::move(promo));
    }
    if (alloc->promotions.empty())
        return body;
    alloc->children = {body};
    return alloc;
}

AstPtr
genLeaf(GenCtx &ctx)
{
    AstPtr block = astBlock();
    unsigned np = numParams(ctx);
    for (auto &sc : ctx.active) {
        AstPtr stmt = astStmt(sc.stmt);
        for (unsigned d = 0; d < sc.ndims; ++d) {
            if (sc.binding[d] < 0)
                panic("statement dim unbound at leaf: " +
                      ctx.prog->statement(sc.stmt).name());
            stmt->bindings.emplace_back(sc.binding[d], sc.offset[d]);
        }
        // Guards: substitute dims with their bindings, then keep the
        // rows the enclosing loops do not already enforce.
        std::vector<Constraint> rows = sc.rows;
        for (auto &row : rows) {
            for (unsigned d = 0; d < sc.ndims; ++d) {
                int64_t c = row.coeffs[ctx.numVars + d];
                if (c == 0)
                    continue;
                row.coeffs[sc.binding[d]] += c;
                row.coeffs.back() += c * sc.offset[d];
                row.coeffs[ctx.numVars + d] = 0;
            }
        }
        if (!pres::fm::simplifyRows(*ctx.pres, rows))
            continue; // statement never executes here
        for (const auto &row : rows) {
            GuardRow g;
            g.isEq = row.isEq;
            g.varCoeffs.assign(ctx.numVars, 0);
            for (unsigned v = 0; v < ctx.numVars; ++v)
                g.varCoeffs[v] = row.coeffs[v];
            g.paramCoeffs.assign(np, 0);
            for (unsigned p = 0; p < np; ++p)
                g.paramCoeffs[p] = row.coeffs[ctx.numVars + sc.ndims + p];
            g.constant = row.coeffs.back();
            if (!loopImplied(ctx, g))
                stmt->guards.push_back(std::move(g));
        }
        block->children.push_back(std::move(stmt));
    }
    return block;
}

AstPtr
genNode(const NodePtr &node, GenCtx ctx, const GenOptions &options)
{
    switch (node->kind) {
      case NodeKind::Domain: {
        for (const auto &s : ctx.prog->statements())
            ctx.active.push_back(
                freshStmtCtx(ctx, ctx.prog->statementId(s.name())));
        return genNode(node->onlyChild(), std::move(ctx), options);
      }
      case NodeKind::Filter: {
        std::vector<StmtCtx> kept;
        for (auto &sc : ctx.active) {
            const std::string &name =
                ctx.prog->statement(sc.stmt).name();
            if (std::find(node->filter.begin(), node->filter.end(),
                          name) != node->filter.end())
                kept.push_back(std::move(sc));
        }
        ctx.active = std::move(kept);
        if (ctx.active.empty())
            return astBlock();
        return genNode(node->onlyChild(), std::move(ctx), options);
      }
      case NodeKind::Sequence: {
        AstPtr block = astBlock();
        for (const auto &child : node->children) {
            AstPtr sub = genNode(child, ctx, options);
            if (sub && !(sub->kind == AstKind::Block &&
                         sub->children.empty()))
                block->children.push_back(std::move(sub));
        }
        return block;
      }
      case NodeKind::Mark: {
        if (node->markLabel == "skipped")
            return astBlock();
        return genNode(node->onlyChild(), std::move(ctx), options);
      }
      case NodeKind::Band:
        return genBand(node, std::move(ctx), options);
      case NodeKind::Extension:
        return genExtension(node, std::move(ctx), options);
      case NodeKind::Leaf:
        return genLeaf(ctx);
    }
    panic("unreachable node kind");
}

/** Number of loop-variable slots used under @p n (max var + 1). */
int
countLoopVars(const AstPtr &n)
{
    if (!n)
        return 0;
    int vars = n->kind == AstKind::For ? n->var + 1 : 0;
    for (const auto &c : n->children)
        vars = std::max(vars, countLoopVars(c));
    return vars;
}

AstPtr
generate(const schedule::ScheduleTree &tree, const GenOptions &options,
         std::vector<GeneratedBand> &bands,
         const deps::DependenceGraph *graph)
{
    failpoints::hit("codegen.generate");
    bands.clear();
    GenCtx ctx;
    ctx.prog = &tree.program();
    ctx.pres = &pres::fm::activeCtx();
    ctx.bands = &bands;
    ctx.graph = graph;
    // Enforce an armed budget / tripped cancel token up front; the
    // scan below re-checks through every eliminateCol it performs.
    pres::fm::checkBudget(*ctx.pres, "codegen::generateAst");
    AstPtr root = genNode(tree.root(), std::move(ctx), options);
    if (root)
        root->numLoopVars = countLoopVars(root);
    return root;
}

} // namespace

AstPtr
generateAst(const schedule::ScheduleTree &tree,
            const GenOptions &options,
            std::vector<GeneratedBand> &bands,
            const deps::DependenceGraph &graph)
{
    return generate(tree, options, bands, &graph);
}

AstPtr
generateAst(const schedule::ScheduleTree &tree,
            const GenOptions &options)
{
    std::vector<GeneratedBand> bands;
    return generate(tree, options, bands, nullptr);
}

} // namespace codegen
} // namespace polyfuse
