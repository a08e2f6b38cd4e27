#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace nexit::lp {

/// Constraint sense.
enum class Relation { kLe, kGe, kEq };

/// One linear constraint: sum(coeff * x[var]) REL rhs.
/// Terms are sparse (variable index, coefficient) pairs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;
  Relation rel = Relation::kLe;
  double rhs = 0.0;
};

/// A linear program over non-negative variables x >= 0:
///   minimise (or maximise) c^T x  subject to  constraints.
class LpProblem {
 public:
  explicit LpProblem(int num_vars);

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] const std::vector<double>& objective() const { return objective_; }
  [[nodiscard]] bool minimize() const { return minimize_; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }

  /// Sets the objective coefficient of one variable (default 0). Throws
  /// std::invalid_argument on a NaN or infinite coefficient.
  void set_objective_coeff(int var, double coeff);
  void set_minimize(bool minimize) { minimize_ = minimize; }

  /// Throws std::out_of_range on a bad variable index and
  /// std::invalid_argument on a NaN or infinite coefficient or rhs.
  void add_constraint(Constraint c);
  /// Convenience: sum(terms) REL rhs.
  void add_constraint(std::vector<std::pair<int, double>> terms, Relation rel,
                      double rhs);

 private:
  int num_vars_;
  bool minimize_ = true;
  std::vector<double> objective_;
  std::vector<Constraint> constraints_;
};

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

std::string to_string(SolveStatus s);

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  // values of the structural variables
};

/// The tableau's dense row kernels. Each is compiled twice, for AVX2 and for
/// the baseline ISA, and the loader picks the clone the CPU supports (a
/// ThreadSanitizer build compiles the baseline alone). Every element costs
/// one IEEE multiply then one subtract (or one divide), never a fused
/// multiply-add, so the result's bits do not depend on the clone.
/// row[j] -= factor * prow[j] for j in [0, n); the two rows must not overlap.
void eliminate_row(double* row, const double* prow, double factor, std::size_t n);
/// row[j] /= divisor for j in [0, n).
void divide_row(double* row, double divisor, std::size_t n);

/// Dense two-phase primal simplex. Pivot selection uses Dantzig's rule
/// (most-negative reduced cost) and falls back to Bland's rule after a stall
/// is detected, which guarantees termination on degenerate problems.
/// Deterministic: ties always break toward the lowest index. Every kOptimal
/// result is checked against the original problem (each constraint within a
/// relative 1e-7, x >= -eps, the tableau's objective equal to c^T x); a
/// failed check throws std::logic_error naming the row.
class SimplexSolver {
 public:
  struct Options {
    double eps = 1e-9;
    int max_iterations = 200000;
    /// Iterations without objective improvement before switching to Bland.
    int stall_threshold = 64;
  };

  SimplexSolver() = default;
  explicit SimplexSolver(Options options) : options_(options) {}

  [[nodiscard]] Solution solve(const LpProblem& problem) const;

 private:
  Options options_;
};

}  // namespace nexit::lp
