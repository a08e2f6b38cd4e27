#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>

namespace nexit::lp {

LpProblem::LpProblem(int num_vars)
    : num_vars_(num_vars), objective_(static_cast<std::size_t>(num_vars), 0.0) {
  if (num_vars <= 0) throw std::invalid_argument("LpProblem: num_vars <= 0");
}

void LpProblem::set_objective_coeff(int var, double coeff) {
  if (!std::isfinite(coeff))
    throw std::invalid_argument("LpProblem::set_objective_coeff: non-finite coefficient");
  objective_.at(static_cast<std::size_t>(var)) = coeff;
}

void LpProblem::add_constraint(Constraint c) {
  for (const auto& [var, coeff] : c.terms) {
    if (var < 0 || var >= num_vars_)
      throw std::out_of_range("LpProblem::add_constraint: bad variable index");
    if (!std::isfinite(coeff))
      throw std::invalid_argument("LpProblem::add_constraint: non-finite coefficient");
  }
  if (!std::isfinite(c.rhs))
    throw std::invalid_argument("LpProblem::add_constraint: non-finite rhs");
  constraints_.push_back(std::move(c));
}

void LpProblem::add_constraint(std::vector<std::pair<int, double>> terms,
                               Relation rel, double rhs) {
  add_constraint(Constraint{std::move(terms), rel, rhs});
}

namespace {

// One source loop per kernel, compiled once per clone. GCC contracts
// `a - b * c` into a fused multiply-add wherever the target has one (C++
// defaults to -ffp-contract=fast), which changes the bits. Neither the
// baseline x86-64 target nor GCC's avx2 target has FMA, so neither clone
// can; an avx512f clone would (in GCC avx512f implies FMA, and the loop
// compiles to vfnmadd213pd), so none is declared. The clones have internal
// linkage so that their only declaration carries the attribute.
//
// ThreadSanitizer instruments the clones' ifunc resolver, which the dynamic
// loader runs before the TSan runtime exists, so a TSan binary would crash
// at load; a TSan build compiles the baseline loop alone.
#if defined(__SANITIZE_THREAD__)
#define NEXIT_ROW_KERNEL
#else
#define NEXIT_ROW_KERNEL [[gnu::target_clones("avx2", "default")]]
#endif

NEXIT_ROW_KERNEL void eliminate(double* __restrict row,
                                const double* __restrict prow, double factor,
                                std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) row[j] -= factor * prow[j];
}

NEXIT_ROW_KERNEL void divide(double* row, double divisor, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) row[j] /= divisor;
}

#undef NEXIT_ROW_KERNEL

}  // namespace

void eliminate_row(double* row, const double* prow, double factor,
                   std::size_t n) {
  eliminate(row, prow, factor, n);
}

void divide_row(double* row, double divisor, std::size_t n) {
  divide(row, divisor, n);
}

std::string to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

namespace {

/// Dense simplex tableau. Rows 0..m-1 are constraints; row m is the reduced
/// cost row (the objective being minimised). Column layout:
///   [0, n)            structural variables
///   [n, n+s)          slack/surplus variables
///   [n+s, n+s+a)      artificial variables (phase 1 only)
///   last column       right-hand side
class Tableau {
 public:
  Tableau(const LpProblem& p, double eps) : eps_(eps), n_(p.num_vars()) {
    const auto& cons = p.constraints();
    m_ = static_cast<int>(cons.size());

    // Count slack and artificial columns. Rows are normalised to rhs >= 0
    // first (negating a row flips its relation).
    struct RowPlan {
      Relation rel;
      double sign;  // +1 or -1 applied to the original row
    };
    std::vector<RowPlan> plan;
    plan.reserve(static_cast<std::size_t>(m_));
    int slacks = 0, artificials = 0;
    for (const auto& c : cons) {
      Relation rel = c.rel;
      double sign = 1.0;
      if (c.rhs < 0.0) {
        sign = -1.0;
        rel = (rel == Relation::kLe) ? Relation::kGe
              : (rel == Relation::kGe) ? Relation::kLe
                                       : Relation::kEq;
      }
      plan.push_back(RowPlan{rel, sign});
      switch (rel) {
        case Relation::kLe: slacks += 1; break;
        case Relation::kGe: slacks += 1; artificials += 1; break;
        case Relation::kEq: artificials += 1; break;
      }
    }
    s_ = slacks;
    a_ = artificials;
    cols_ = n_ + s_ + a_ + 1;

    // One block from a cache-line boundary, each row padded to a multiple
    // of 4 doubles so every row starts 32-byte aligned (the row kernels'
    // AVX2 width). With a heap vector per row, the pivot's speed depended
    // on where earlier allocations had left room: an unrelated 32-byte
    // allocation elsewhere made the same LP 20-35% slower (Xeon, 4 vCPUs).
    const auto cols = static_cast<std::size_t>(cols_);
    const std::size_t stride = (cols + 3) / 4 * 4;
    const std::size_t used = (static_cast<std::size_t>(m_) + 1) * stride;
    constexpr std::size_t kLine = 64;
    cells_.assign(used + kLine / sizeof(double), 0.0);
    void* start = cells_.data();
    std::size_t space = cells_.size() * sizeof(double);
    auto* base = static_cast<double*>(
        std::align(kLine, used * sizeof(double), start, space));
    for (std::size_t i = 0; i <= static_cast<std::size_t>(m_); ++i)
      rows_.emplace_back(base + i * stride, cols);
    basis_.assign(static_cast<std::size_t>(m_), -1);

    int next_slack = n_;
    int next_art = n_ + s_;
    first_artificial_ = next_art;
    for (int i = 0; i < m_; ++i) {
      const auto& c = cons[static_cast<std::size_t>(i)];
      auto& row = rows_[static_cast<std::size_t>(i)];
      for (const auto& [var, coeff] : c.terms)
        row[static_cast<std::size_t>(var)] += plan[static_cast<std::size_t>(i)].sign * coeff;
      row[static_cast<std::size_t>(cols_ - 1)] =
          plan[static_cast<std::size_t>(i)].sign * c.rhs;

      switch (plan[static_cast<std::size_t>(i)].rel) {
        case Relation::kLe:
          row[static_cast<std::size_t>(next_slack)] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_slack++;
          break;
        case Relation::kGe:
          row[static_cast<std::size_t>(next_slack++)] = -1.0;
          row[static_cast<std::size_t>(next_art)] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_art++;
          break;
        case Relation::kEq:
          row[static_cast<std::size_t>(next_art)] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_art++;
          break;
      }
    }
  }

  // rows_ points into cells_.
  Tableau(const Tableau&) = delete;
  Tableau& operator=(const Tableau&) = delete;

  [[nodiscard]] int num_artificials() const { return a_; }
  [[nodiscard]] double rhs(int row) const {
    return rows_[static_cast<std::size_t>(row)][static_cast<std::size_t>(cols_ - 1)];
  }
  [[nodiscard]] double objective_value() const {
    return -rows_[static_cast<std::size_t>(m_)][static_cast<std::size_t>(cols_ - 1)];
  }
  [[nodiscard]] int basis(int row) const { return basis_[static_cast<std::size_t>(row)]; }

  /// Installs the phase-1 objective: minimise the sum of artificials.
  void set_phase1_objective() {
    auto& obj = rows_[static_cast<std::size_t>(m_)];
    std::fill(obj.begin(), obj.end(), 0.0);
    for (int j = first_artificial_; j < first_artificial_ + a_; ++j)
      obj[static_cast<std::size_t>(j)] = 1.0;
    // Make reduced costs of basic (artificial) variables zero.
    for (int i = 0; i < m_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] >= first_artificial_) {
        subtract_row(i, 1.0);
      }
    }
  }

  /// Installs the phase-2 objective (minimisation, coefficients over
  /// structural variables) and re-prices against the current basis.
  void set_phase2_objective(const std::vector<double>& c) {
    auto& obj = rows_[static_cast<std::size_t>(m_)];
    std::fill(obj.begin(), obj.end(), 0.0);
    for (int j = 0; j < n_; ++j)
      obj[static_cast<std::size_t>(j)] = c[static_cast<std::size_t>(j)];
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      const double cb = obj[static_cast<std::size_t>(b)];
      if (std::abs(cb) > 0.0) subtract_row(i, cb);
    }
  }

  /// One simplex iteration. `allow_artificial_entry` is false in phase 2.
  /// Returns: 0 = optimal reached, 1 = pivoted, -1 = unbounded.
  int iterate(bool bland, bool allow_artificial_entry) {
    const auto& obj = rows_[static_cast<std::size_t>(m_)];
    const int limit = allow_artificial_entry ? (n_ + s_ + a_) : (n_ + s_);

    int entering = -1;
    double best = -eps_;
    for (int j = 0; j < limit; ++j) {
      const double rc = obj[static_cast<std::size_t>(j)];
      if (rc < -eps_) {
        if (bland) {
          entering = j;
          break;
        }
        if (rc < best) {
          best = rc;
          entering = j;
        }
      }
    }
    if (entering < 0) return 0;  // optimal

    // Ratio test; ties break toward the smallest basis variable index
    // (lexicographic Bland tie-break keeps cycling at bay even under
    // Dantzig's entering rule in practice).
    int leaving = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m_; ++i) {
      const double aij =
          rows_[static_cast<std::size_t>(i)][static_cast<std::size_t>(entering)];
      if (aij > eps_) {
        const double ratio = rhs(i) / aij;
        if (ratio < best_ratio - eps_ ||
            (ratio < best_ratio + eps_ && leaving >= 0 &&
             basis_[static_cast<std::size_t>(i)] <
                 basis_[static_cast<std::size_t>(leaving)])) {
          best_ratio = ratio;
          leaving = i;
        }
      }
    }
    if (leaving < 0) return -1;  // unbounded

    pivot(leaving, entering);
    return 1;
  }

  /// Pivots artificial variables out of the basis where possible; rows whose
  /// artificial cannot leave (all-zero row) are redundant and harmless.
  void drive_out_artificials() {
    for (int i = 0; i < m_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] < first_artificial_) continue;
      for (int j = 0; j < n_ + s_; ++j) {
        if (std::abs(rows_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) >
            eps_) {
          pivot(i, j);
          break;
        }
      }
    }
  }

  [[nodiscard]] std::vector<double> extract_solution() const {
    std::vector<double> x(static_cast<std::size_t>(n_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (b < n_) x[static_cast<std::size_t>(b)] = rhs(i);
    }
    return x;
  }

 private:
  void subtract_row(int row, double factor) {
    eliminate(rows_[static_cast<std::size_t>(m_)].data(),
              rows_[static_cast<std::size_t>(row)].data(), factor,
              rows_[static_cast<std::size_t>(row)].size());
  }

  // Out of line and cache-line aligned, so code added elsewhere cannot
  // shift the alignment of the LP's hottest loop.
  [[gnu::noinline, gnu::aligned(64)]] void pivot(int leaving_row,
                                                 int entering_col) {
    auto& prow = rows_[static_cast<std::size_t>(leaving_row)];
    const double pval = prow[static_cast<std::size_t>(entering_col)];
    divide(prow.data(), pval, prow.size());
    for (int i = 0; i <= m_; ++i) {
      if (i == leaving_row) continue;
      auto& row = rows_[static_cast<std::size_t>(i)];
      const double factor = row[static_cast<std::size_t>(entering_col)];
      if (std::abs(factor) <= 0.0) continue;
      eliminate(row.data(), prow.data(), factor, prow.size());
      row[static_cast<std::size_t>(entering_col)] = 0.0;  // cancel exactly
    }
    prow[static_cast<std::size_t>(entering_col)] = 1.0;
    basis_[static_cast<std::size_t>(leaving_row)] = entering_col;
  }

  double eps_;
  int n_ = 0;      // structural
  int s_ = 0;      // slack/surplus
  int a_ = 0;      // artificial
  int m_ = 0;      // constraints
  int cols_ = 0;   // total columns incl. rhs
  int first_artificial_ = 0;
  std::vector<double> cells_;
  std::vector<std::span<double>> rows_;
  std::vector<int> basis_;
};

/// The primal half of an optimality certificate: `sol` (from a tableau whose
/// own objective value is `tableau_objective`, in the problem's sense) must
/// satisfy every original constraint within a relative 1e-7, keep x >= -eps,
/// and carry an objective equal to c^T x. Throws std::logic_error otherwise.
void check_primal(const LpProblem& problem, const Solution& sol,
                  double tableau_objective, double eps) {
  constexpr double kRelTol = 1e-7;
  const auto& cons = problem.constraints();
  for (std::size_t i = 0; i < cons.size(); ++i) {
    double lhs = 0.0;
    double magnitude = 0.0;
    for (const auto& [var, coeff] : cons[i].terms) {
      const double term = coeff * sol.x[static_cast<std::size_t>(var)];
      // nexit-lint: allow(float-accumulate): row dot-product in the
      // constraint's own term order, a tolerance check, not an output
      lhs += term;
      // nexit-lint: allow(float-accumulate): same order, tolerance scale
      magnitude += std::abs(term);
    }
    const double tol = kRelTol * (1.0 + std::abs(cons[i].rhs) + magnitude);
    const double gap = lhs - cons[i].rhs;
    const bool ok = cons[i].rel == Relation::kLe   ? gap <= tol
                    : cons[i].rel == Relation::kGe ? gap >= -tol
                                                   : std::abs(gap) <= tol;
    if (!ok)
      throw std::logic_error("SimplexSolver: optimal x violates constraint row " +
                             std::to_string(i));
  }
  double magnitude = 0.0;
  for (std::size_t j = 0; j < sol.x.size(); ++j) {
    if (!(sol.x[j] >= -eps))
      throw std::logic_error("SimplexSolver: optimal x is negative at variable " +
                             std::to_string(j));
    // nexit-lint: allow(float-accumulate): tolerance scale in LP column order
    magnitude += std::abs(problem.objective()[j] * sol.x[j]);
  }
  if (!(std::abs(tableau_objective - sol.objective) <=
        kRelTol * (1.0 + magnitude)))
    throw std::logic_error(
        "SimplexSolver: tableau objective differs from c^T x (objective row)");
}

}  // namespace

Solution SimplexSolver::solve(const LpProblem& problem) const {
  Tableau t(problem, options_.eps);

  auto run = [&](bool allow_artificial) -> SolveStatus {
    int iterations = 0;
    int stall = 0;
    bool bland = false;
    double last_obj = t.objective_value();
    while (iterations++ < options_.max_iterations) {
      const int r = t.iterate(bland, allow_artificial);
      if (r == 0) return SolveStatus::kOptimal;
      if (r == -1) return SolveStatus::kUnbounded;
      const double obj = t.objective_value();
      if (obj < last_obj - options_.eps) {
        stall = 0;
        bland = false;
        last_obj = obj;
      } else if (++stall > options_.stall_threshold) {
        bland = true;  // anti-cycling fallback
      }
    }
    return SolveStatus::kIterationLimit;
  };

  // Phase 1: find a basic feasible solution.
  if (t.num_artificials() > 0) {
    t.set_phase1_objective();
    const SolveStatus st = run(true);
    if (st == SolveStatus::kIterationLimit)
      return Solution{SolveStatus::kIterationLimit, 0.0, {}};
    if (t.objective_value() > 1e-6)
      return Solution{SolveStatus::kInfeasible, 0.0, {}};
    t.drive_out_artificials();
  }

  // Phase 2: optimise the real objective.
  std::vector<double> c = problem.objective();
  if (!problem.minimize()) {
    for (double& v : c) v = -v;
  }
  t.set_phase2_objective(c);
  const SolveStatus st = run(false);
  if (st != SolveStatus::kOptimal) return Solution{st, 0.0, {}};

  Solution sol;
  sol.status = SolveStatus::kOptimal;
  sol.x = t.extract_solution();
  double obj = 0.0;
  for (int j = 0; j < problem.num_vars(); ++j)
    // nexit-lint: allow(float-accumulate): objective dot-product in LP
    // variable order, the solver's canonical column order
    obj += problem.objective()[static_cast<std::size_t>(j)] *
           sol.x[static_cast<std::size_t>(j)];
  sol.objective = obj;
  check_primal(problem, sol,
               problem.minimize() ? t.objective_value() : -t.objective_value(),
               options_.eps);
  return sol;
}

}  // namespace nexit::lp
