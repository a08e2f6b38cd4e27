#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lp/simplex.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace nexit::lp {
namespace {

TEST(Simplex, TrivialMaximisation) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  ->  x=4, y=0, obj=12.
  LpProblem p(2);
  p.set_minimize(false);
  p.set_objective_coeff(0, 3.0);
  p.set_objective_coeff(1, 2.0);
  p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kLe, 4.0);
  p.add_constraint({{0, 1.0}, {1, 3.0}}, Relation::kLe, 6.0);
  auto sol = SimplexSolver{}.solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 12.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 4.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 0.0, 1e-8);
}

TEST(Simplex, ClassicTwoVariable) {
  // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> x=3, y=1.5, obj=21.
  LpProblem p(2);
  p.set_minimize(false);
  p.set_objective_coeff(0, 5.0);
  p.set_objective_coeff(1, 4.0);
  p.add_constraint({{0, 6.0}, {1, 4.0}}, Relation::kLe, 24.0);
  p.add_constraint({{0, 1.0}, {1, 2.0}}, Relation::kLe, 6.0);
  auto sol = SimplexSolver{}.solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 21.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 1.5, 1e-8);
}

TEST(Simplex, MinimisationWithGeConstraints) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2 -> x=10 (y=0? check: obj 2*10=20
  // vs x=2,y=8: 4+24=28). Optimal x=10, y=0, obj=20.
  LpProblem p(2);
  p.set_objective_coeff(0, 2.0);
  p.set_objective_coeff(1, 3.0);
  p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kGe, 10.0);
  p.add_constraint({{0, 1.0}}, Relation::kGe, 2.0);
  auto sol = SimplexSolver{}.solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 20.0, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 5, x <= 3 -> x=3, y=2, obj=7.
  LpProblem p(2);
  p.set_objective_coeff(0, 1.0);
  p.set_objective_coeff(1, 2.0);
  p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kEq, 5.0);
  p.add_constraint({{0, 1.0}}, Relation::kLe, 3.0);
  auto sol = SimplexSolver{}.solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 7.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-8);
}

TEST(Simplex, InfeasibleDetected) {
  LpProblem p(1);
  p.set_objective_coeff(0, 1.0);
  p.add_constraint({{0, 1.0}}, Relation::kLe, 1.0);
  p.add_constraint({{0, 1.0}}, Relation::kGe, 2.0);
  auto sol = SimplexSolver{}.solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  LpProblem p(1);
  p.set_minimize(false);
  p.set_objective_coeff(0, 1.0);
  p.add_constraint({{0, -1.0}}, Relation::kLe, 1.0);
  auto sol = SimplexSolver{}.solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalised) {
  // x - y <= -2  (i.e., y >= x + 2); min y -> x=0, y=2.
  LpProblem p(2);
  p.set_objective_coeff(1, 1.0);
  p.add_constraint({{0, 1.0}, {1, -1.0}}, Relation::kLe, -2.0);
  auto sol = SimplexSolver{}.solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // A classic cycling-prone instance (Beale). Must terminate optimal.
  LpProblem p(4);
  p.set_minimize(false);
  p.set_objective_coeff(0, 0.75);
  p.set_objective_coeff(1, -150.0);
  p.set_objective_coeff(2, 0.02);
  p.set_objective_coeff(3, -6.0);
  p.add_constraint({{0, 0.25}, {1, -60.0}, {2, -1.0 / 25.0}, {3, 9.0}},
                   Relation::kLe, 0.0);
  p.add_constraint({{0, 0.5}, {1, -90.0}, {2, -1.0 / 50.0}, {3, 3.0}},
                   Relation::kLe, 0.0);
  p.add_constraint({{2, 1.0}}, Relation::kLe, 1.0);
  auto sol = SimplexSolver{}.solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.05, 1e-6);
}

TEST(Simplex, MinMaxShapeProblem) {
  // min t s.t. 3x0 + 1x1 <= t, 1x0 + 3x1 <= t, x0 + x1 = 1.
  // Balanced split x0 = x1 = 0.5 gives t = 2.
  LpProblem p(3);
  p.set_objective_coeff(2, 1.0);
  p.add_constraint({{0, 3.0}, {1, 1.0}, {2, -1.0}}, Relation::kLe, 0.0);
  p.add_constraint({{0, 1.0}, {1, 3.0}, {2, -1.0}}, Relation::kLe, 0.0);
  p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kEq, 1.0);
  auto sol = SimplexSolver{}.solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 0.5, 1e-8);
  EXPECT_NEAR(sol.x[1], 0.5, 1e-8);
}

TEST(Simplex, BadVariableIndexThrows) {
  LpProblem p(2);
  EXPECT_THROW(p.add_constraint({{5, 1.0}}, Relation::kLe, 1.0),
               std::out_of_range);
  EXPECT_THROW(LpProblem(0), std::invalid_argument);
}

TEST(Simplex, NonFiniteInputThrows) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LpProblem p(2);
  EXPECT_THROW(p.set_objective_coeff(0, kNan), std::invalid_argument);
  EXPECT_THROW(p.set_objective_coeff(1, -kInf), std::invalid_argument);
  EXPECT_THROW(p.add_constraint({{0, kNan}}, Relation::kLe, 1.0),
               std::invalid_argument);
  EXPECT_THROW(p.add_constraint({{1, kInf}}, Relation::kEq, 1.0),
               std::invalid_argument);
  EXPECT_THROW(p.add_constraint({{0, 1.0}}, Relation::kGe, kNan),
               std::invalid_argument);
  EXPECT_THROW(p.add_constraint({{0, 1.0}}, Relation::kLe, -kInf),
               std::invalid_argument);
  EXPECT_TRUE(p.constraints().empty());
  EXPECT_EQ(p.objective(), (std::vector<double>{0.0, 0.0}));
}

TEST(Simplex, StatusToString) {
  EXPECT_EQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_EQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
}

// ---------------------------------------------------------------------------
// Row kernels: whichever clone the host resolves must produce the unfused
// IEEE bits. With f = p = 1 + 2^-30 the product rounds to 1 + 2^-29 (the
// exact product carries a further 2^-60), so r - round(f * p) and the fused
// fma(-f, p, r) differ in the last bits for every r near 1 + 2^-29.
// ---------------------------------------------------------------------------

TEST(RowKernels, EliminateIsUnfusedOnEveryTailLength) {
  const double f = 1.0 + std::ldexp(1.0, -30);
  for (std::size_t n = 0; n <= 37; ++n) {
    std::vector<double> row(n), prow(n), want(n);
    for (std::size_t j = 0; j < n; ++j) {
      const int k = static_cast<int>(j % 5);  // a different value per lane
      prow[j] = std::ldexp(f, k);
      row[j] = std::ldexp(1.0 + std::ldexp(1.0, -29) + std::ldexp(1.0, -20), k);
      want[j] = std::ldexp(1.0, k - 20);  // exact: r - round(f * p)
      ASSERT_NE(std::fma(-f, prow[j], row[j]), want[j]) << "input cannot tell";
    }
    eliminate_row(row.data(), prow.data(), f, n);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row[j]),
                std::bit_cast<std::uint64_t>(want[j]))
          << "n=" << n << " j=" << j;
  }
}

TEST(RowKernels, DivideIsCorrectlyRoundedOnEveryTailLength) {
  for (std::size_t n = 0; n <= 37; ++n) {
    std::vector<double> row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = static_cast<double>(j) + 0.1;
    divide_row(row.data(), 3.0, n);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(row[j], (static_cast<double>(j) + 0.1) / 3.0)
          << "n=" << n << " j=" << j;
  }
}

// A fixed-seed LP shaped like one §5.2 min-max-load problem: 40 negotiable
// flows x 4 candidate interconnections (one convex-combination equality
// row per flow) plus 30 link rows `sum(size * x) - cap * t <= -background`.
// Links with background load have a negative rhs, so the tableau flips them
// to >= rows; every fifth link has none and stays a <= row.
LpProblem fig7_shaped_lp() {
  constexpr int kFlows = 40, kCandidates = 4, kLinks = 30;
  util::Rng rng(20051);
  const int t_var = kFlows * kCandidates;
  LpProblem p(t_var + 1);
  p.set_objective_coeff(t_var, 1.0);
  std::vector<std::vector<std::pair<int, double>>> link_terms(kLinks);
  for (int f = 0; f < kFlows; ++f) {
    const double size = rng.next_double(0.5, 20.0);
    std::vector<std::pair<int, double>> one;
    for (int c = 0; c < kCandidates; ++c) {
      const int var = f * kCandidates + c;
      one.emplace_back(var, 1.0);
      const auto l1 = static_cast<std::size_t>(rng.next_below(kLinks));
      auto l2 = static_cast<std::size_t>(rng.next_below(kLinks - 1));
      if (l2 >= l1) ++l2;
      link_terms[l1].emplace_back(var, size);
      link_terms[l2].emplace_back(var, size);
    }
    p.add_constraint(std::move(one), Relation::kEq, 1.0);
  }
  for (int l = 0; l < kLinks; ++l) {
    const double cap = rng.next_double(50.0, 150.0);
    const double background = l % 5 == 0 ? 0.0 : rng.next_double(1.0, 40.0);
    auto& terms = link_terms[static_cast<std::size_t>(l)];
    terms.emplace_back(t_var, -cap);
    p.add_constraint(std::move(terms), Relation::kLe, -background);
  }
  return p;
}

std::uint64_t solution_digest(const Solution& sol) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (double v : sol.x) h = util::fnv1a_mix(h, util::double_bits(v));
  return util::fnv1a_mix(h, util::double_bits(sol.objective));
}

TEST(Simplex, Fig7ShapedLpBitsArePinned) {
  const LpProblem p = fig7_shaped_lp();
  const auto sol = SimplexSolver{}.solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  // Recorded with the baseline-ISA (SSE2) elimination loop; a change to the
  // pivot's arithmetic (operation order, a fused multiply-add) moves it.
  EXPECT_EQ(solution_digest(sol), 0x9f006cc3b2e7ea8bull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sol.objective),
            std::bit_cast<std::uint64_t>(0.69508968358737611));
}

// ---------------------------------------------------------------------------
// Property test: on random 2-variable LPs with <= constraints, the simplex
// optimum must match a brute-force scan over constraint-intersection
// vertices (the optimum of a bounded feasible LP lies at a vertex).
// ---------------------------------------------------------------------------

class SimplexVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexVsBruteForce, TwoVarRandomLe) {
  util::Rng rng(GetParam());
  // Random objective (maximise, positive coefficients => bounded by
  // constraints below).
  const double c0 = rng.next_double(0.1, 5.0);
  const double c1 = rng.next_double(0.1, 5.0);
  // 4 random constraints a*x + b*y <= r with a,b >= 0 (keeps it bounded),
  // plus x,y >= 0 implicitly.
  struct Row {
    double a, b, r;
  };
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) {
    rows.push_back(Row{rng.next_double(0.1, 3.0), rng.next_double(0.1, 3.0),
                       rng.next_double(1.0, 10.0)});
  }

  LpProblem p(2);
  p.set_minimize(false);
  p.set_objective_coeff(0, c0);
  p.set_objective_coeff(1, c1);
  for (const auto& row : rows)
    p.add_constraint({{0, row.a}, {1, row.b}}, Relation::kLe, row.r);
  auto sol = SimplexSolver{}.solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);

  // Brute force: evaluate all candidate vertices (pairwise constraint
  // intersections + axis intercepts + origin), keep feasible ones.
  auto feasible = [&](double x, double y) {
    if (x < -1e-9 || y < -1e-9) return false;
    for (const auto& row : rows)
      if (row.a * x + row.b * y > row.r + 1e-9) return false;
    return true;
  };
  double best = 0.0;  // origin is always feasible
  auto consider = [&](double x, double y) {
    if (feasible(x, y)) best = std::max(best, c0 * x + c1 * y);
  };
  // Extend rows with the axes x>=0 (as -x <= 0) and y>=0 for intersections.
  std::vector<Row> all = rows;
  all.push_back(Row{1.0, 0.0, 0.0});  // x = 0 boundary (a*x = 0)
  all.push_back(Row{0.0, 1.0, 0.0});  // y = 0 boundary
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      const double det = all[i].a * all[j].b - all[j].a * all[i].b;
      if (std::abs(det) < 1e-12) continue;
      const double x = (all[i].r * all[j].b - all[j].r * all[i].b) / det;
      const double y = (all[i].a * all[j].r - all[j].a * all[i].r) / det;
      consider(x, y);
    }
  }
  EXPECT_NEAR(sol.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace nexit::lp
