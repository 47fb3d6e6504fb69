/**
 * @file
 * Integer-linear-program model container (Gurobi substitute, Sec. 4.3).
 *
 * The API mirrors the subset of a commercial solver the compiler needs:
 * addVar / addConstr / setObjective / solve. Linear expressions support
 * natural operator syntax: 3.0 * x + y - 2.0 * z.
 */

#ifndef SMART_ILP_MODEL_HH
#define SMART_ILP_MODEL_HH

#include <cstdint>
#include <vector>

namespace smart::ilp
{

/** Variable domain kinds. */
enum class VarType
{
    Continuous,
    Binary,
    Integer
};

/** Constraint senses. */
enum class Sense
{
    Le, //!< a'x <= b
    Ge, //!< a'x >= b
    Eq  //!< a'x == b
};

/** Handle to a model variable. */
struct Var
{
    int id = -1;
};

/** A linear expression: sum of coefficient * variable terms. */
class LinExpr
{
  public:
    LinExpr() = default;
    /** Implicit conversion from a single variable. */
    LinExpr(Var v) { terms_.emplace_back(v.id, 1.0); }

    /** Add @p coeff * @p v to the expression. */
    LinExpr &add(Var v, double coeff);
    /** Merge another expression into this one. */
    LinExpr &operator+=(const LinExpr &other);
    /** Subtract another expression from this one. */
    LinExpr &operator-=(const LinExpr &other);
    /** Scale the expression. */
    LinExpr &operator*=(double k);

    /** Raw (variable id, coefficient) terms; may contain duplicates. */
    const std::vector<std::pair<int, double>> &terms() const
    {
        return terms_;
    }

  private:
    std::vector<std::pair<int, double>> terms_;
};

LinExpr operator+(LinExpr a, const LinExpr &b);
LinExpr operator-(LinExpr a, const LinExpr &b);
LinExpr operator*(double k, Var v);
LinExpr operator*(double k, LinExpr e);

/** One stored constraint row. */
struct Constraint
{
    LinExpr expr;
    Sense sense;
    double rhs;
};

/** An ILP/LP model: variables, constraints, and a linear objective. */
class Model
{
  public:
    /** Add a variable with bounds [lb, ub]. */
    Var addVar(double lb, double ub, VarType type);
    /** Add a binary variable. */
    Var addBinary();

    /** Add a linear constraint. */
    void addConstr(const LinExpr &expr, Sense sense, double rhs);

    /** Set the objective; @p maximize selects the direction. */
    void setObjective(const LinExpr &expr, bool maximize);

    /** Number of variables. */
    int numVars() const { return static_cast<int>(lb_.size()); }
    /** Number of constraints. */
    int numConstrs() const { return static_cast<int>(constrs_.size()); }

    /** Lower bound of a variable. */
    double lb(int id) const { return lb_[id]; }
    /** Upper bound of a variable. */
    double ub(int id) const { return ub_[id]; }
    /** Type of a variable. */
    VarType type(int id) const { return types_[id]; }
    /** All constraints. */
    const std::vector<Constraint> &constraints() const { return constrs_; }
    /** Objective expression. */
    const LinExpr &objective() const { return objective_; }
    /** True if the objective is maximized. */
    bool maximize() const { return maximize_; }

    /** Tighten a variable's bounds (used by branch & bound). */
    void setBounds(int id, double lb, double ub);

    /**
     * Stamp of the model's structure: its variables, constraints and
     * objective, but not its bounds. addVar, addConstr and setObjective
     * draw a process-unique stamp; copies keep theirs. Two models with
     * the same stamp differ at most in their variable bounds.
     */
    std::uint64_t structure() const { return structure_; }

  private:
    std::vector<double> lb_;
    std::vector<double> ub_;
    std::vector<VarType> types_;
    std::vector<Constraint> constrs_;
    LinExpr objective_;
    bool maximize_ = true;
    std::uint64_t structure_ = 0;
};

} // namespace smart::ilp

#endif // SMART_ILP_MODEL_HH
