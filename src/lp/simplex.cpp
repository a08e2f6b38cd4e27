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
  objective_.at(static_cast<std::size_t>(var)) = coeff;
}

void LpProblem::add_constraint(Constraint c) {
  for (const auto& [var, coeff] : c.terms) {
    if (var < 0 || var >= num_vars_)
      throw std::out_of_range("LpProblem::add_constraint: bad variable index");
    (void)coeff;
  }
  constraints_.push_back(std::move(c));
}

void LpProblem::add_constraint(std::vector<std::pair<int, double>> terms,
                               Relation rel, double rhs) {
  add_constraint(Constraint{std::move(terms), rel, rhs});
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

    // One block from a cache-line boundary, each row padded to an even
    // length so every row starts 16-byte aligned (the pivot loop's SSE2
    // width). With a heap vector per row, the pivot's speed depended on
    // where earlier allocations had left room: an unrelated 32-byte
    // allocation elsewhere made the same LP 20-35% slower (Xeon, 4 vCPUs).
    const auto cols = static_cast<std::size_t>(cols_);
    const std::size_t stride = (cols + 1) / 2 * 2;
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
  [[nodiscard]] int first_artificial() const { return first_artificial_; }
  [[nodiscard]] int structural_vars() const { return n_; }
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
    auto& obj = rows_[static_cast<std::size_t>(m_)];
    const auto& r = rows_[static_cast<std::size_t>(row)];
    for (int j = 0; j < cols_; ++j)
      obj[static_cast<std::size_t>(j)] -= factor * r[static_cast<std::size_t>(j)];
  }

  // Out of line and cache-line aligned, so code added elsewhere cannot
  // shift the alignment of the LP's hottest loop.
  [[gnu::noinline, gnu::aligned(64)]] void pivot(int leaving_row,
                                                 int entering_col) {
    auto& prow = rows_[static_cast<std::size_t>(leaving_row)];
    const double pval = prow[static_cast<std::size_t>(entering_col)];
    for (double& v : prow) v /= pval;
    for (int i = 0; i <= m_; ++i) {
      if (i == leaving_row) continue;
      auto& row = rows_[static_cast<std::size_t>(i)];
      const double factor = row[static_cast<std::size_t>(entering_col)];
      if (std::abs(factor) <= 0.0) continue;
      for (int j = 0; j < cols_; ++j)
        row[static_cast<std::size_t>(j)] -=
            factor * prow[static_cast<std::size_t>(j)];
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
  return sol;
}

}  // namespace nexit::lp
