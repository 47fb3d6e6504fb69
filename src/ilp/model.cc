#include "ilp/model.hh"

#include <atomic>

#include "common/logging.hh"

namespace smart::ilp
{

namespace
{

/** A stamp no model has held before (0 is the empty model's). */
std::uint64_t
freshStructure()
{
    static std::atomic<std::uint64_t> next{0};
    // memory_order: only uniqueness matters; the stamp orders no other
    // memory, so a relaxed increment suffices.
    return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

LinExpr &
LinExpr::add(Var v, double coeff)
{
    terms_.emplace_back(v.id, coeff);
    return *this;
}

LinExpr &
LinExpr::operator+=(const LinExpr &other)
{
    terms_.insert(terms_.end(), other.terms_.begin(), other.terms_.end());
    return *this;
}

LinExpr &
LinExpr::operator-=(const LinExpr &other)
{
    for (const auto &[id, c] : other.terms_)
        terms_.emplace_back(id, -c);
    return *this;
}

LinExpr &
LinExpr::operator*=(double k)
{
    for (auto &[id, c] : terms_)
        c *= k;
    return *this;
}

LinExpr
operator+(LinExpr a, const LinExpr &b)
{
    a += b;
    return a;
}

LinExpr
operator-(LinExpr a, const LinExpr &b)
{
    a -= b;
    return a;
}

LinExpr
operator*(double k, Var v)
{
    LinExpr e;
    e.add(v, k);
    return e;
}

LinExpr
operator*(double k, LinExpr e)
{
    e *= k;
    return e;
}

Var
Model::addVar(double lb, double ub, VarType type)
{
    smart_assert(lb <= ub, "variable ", numVars(), " has lb ", lb,
                 " > ub ", ub);
    lb_.push_back(lb);
    ub_.push_back(ub);
    types_.push_back(type);
    structure_ = freshStructure();
    return Var{static_cast<int>(lb_.size() - 1)};
}

Var
Model::addBinary()
{
    return addVar(0.0, 1.0, VarType::Binary);
}

void
Model::addConstr(const LinExpr &expr, Sense sense, double rhs)
{
    for (const auto &[id, c] : expr.terms()) {
        smart_assert(id >= 0 && id < numVars(), "constraint ",
                     numConstrs(), " references unknown var ", id);
        (void)c;
    }
    constrs_.push_back(Constraint{expr, sense, rhs});
    structure_ = freshStructure();
}

void
Model::setObjective(const LinExpr &expr, bool maximize)
{
    objective_ = expr;
    maximize_ = maximize;
    structure_ = freshStructure();
}

void
Model::setBounds(int id, double lb, double ub)
{
    smart_assert(id >= 0 && id < numVars(), "unknown variable ", id);
    smart_assert(lb <= ub, "bounds cross for variable ", id);
    lb_[id] = lb;
    ub_[id] = ub;
}

} // namespace smart::ilp
