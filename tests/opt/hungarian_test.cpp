#include "opt/hungarian.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mobirescue::opt {
namespace {

AssignmentProblem Make(std::size_t rows, std::size_t cols,
                       std::initializer_list<double> costs) {
  AssignmentProblem p;
  p.rows = rows;
  p.cols = cols;
  p.cost.assign(costs);
  return p;
}

TEST(HungarianTest, SolvesKnown3x3) {
  // Classic example: optimal assignment cost 5 (1+2+2... verify below).
  const AssignmentProblem p = Make(3, 3,
                                   {4, 1, 3,
                                    2, 0, 5,
                                    3, 2, 2});
  const AssignmentResult r = SolveAssignment(p);
  EXPECT_DOUBLE_EQ(r.total_cost, 5.0);  // (0,1)+(1,0)+(2,2) = 1+2+2
  EXPECT_EQ(r.row_to_col[0], 1);
  EXPECT_EQ(r.row_to_col[1], 0);
  EXPECT_EQ(r.row_to_col[2], 2);
}

TEST(HungarianTest, AssignmentIsPermutation) {
  util::Rng rng(8);
  AssignmentProblem p;
  p.rows = p.cols = 12;
  p.cost.resize(144);
  for (double& c : p.cost) c = rng.Uniform(0, 100);
  const AssignmentResult r = SolveAssignment(p);
  std::vector<char> used(12, 0);
  for (int col : r.row_to_col) {
    ASSERT_GE(col, 0);
    ASSERT_LT(col, 12);
    EXPECT_FALSE(used[col]);
    used[col] = 1;
  }
}

TEST(HungarianTest, BeatsOrEqualsGreedyOnRandomInstances) {
  util::Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    AssignmentProblem p;
    p.rows = p.cols = 8;
    p.cost.resize(64);
    for (double& c : p.cost) c = rng.Uniform(0, 10);
    const double exact = SolveAssignment(p).total_cost;
    const double greedy = SolveAssignmentGreedy(p).total_cost;
    EXPECT_LE(exact, greedy + 1e-9);
  }
}

TEST(HungarianTest, BruteForceAgreementSmall) {
  util::Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    AssignmentProblem p;
    p.rows = p.cols = 5;
    p.cost.resize(25);
    for (double& c : p.cost) c = rng.Uniform(0, 10);
    // Brute force over all 120 permutations.
    std::vector<int> perm = {0, 1, 2, 3, 4};
    double best = 1e18;
    do {
      double cost = 0;
      for (int i = 0; i < 5; ++i) cost += p.at(i, perm[i]);
      best = std::min(best, cost);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(SolveAssignment(p).total_cost, best, 1e-9);
  }
}

TEST(HungarianTest, RectangularMoreColsLeavesColumnsUnused) {
  const AssignmentProblem p = Make(2, 3,
                                   {5, 1, 9,
                                    5, 9, 1});
  const AssignmentResult r = SolveAssignment(p);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.0);
  EXPECT_EQ(r.row_to_col[0], 1);
  EXPECT_EQ(r.row_to_col[1], 2);
}

TEST(HungarianTest, RectangularMoreRowsLeavesRowsUnassigned) {
  const AssignmentProblem p = Make(3, 1, {3, 1, 2});
  const AssignmentResult r = SolveAssignment(p);
  EXPECT_DOUBLE_EQ(r.total_cost, 1.0);
  int assigned = 0;
  for (int c : r.row_to_col) assigned += (c >= 0);
  EXPECT_EQ(assigned, 1);
  EXPECT_EQ(r.row_to_col[1], 0);
}

TEST(HungarianTest, ForbiddenCostMeansUnassigned) {
  const AssignmentProblem p = Make(2, 2,
                                   {1.0, kForbiddenCost,
                                    kForbiddenCost, kForbiddenCost});
  const AssignmentResult r = SolveAssignment(p);
  EXPECT_EQ(r.row_to_col[0], 0);
  EXPECT_EQ(r.row_to_col[1], -1);
  EXPECT_DOUBLE_EQ(r.total_cost, 1.0);
}

TEST(HungarianTest, RejectsNonFiniteCosts) {
  AssignmentProblem p = Make(1, 1, {1.0});
  p.cost[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SolveAssignment(p), std::invalid_argument);
}

TEST(HungarianTest, SizeMismatchThrows) {
  AssignmentProblem p;
  p.rows = 2;
  p.cols = 2;
  p.cost = {1.0};
  EXPECT_THROW(SolveAssignment(p), std::invalid_argument);
}

TEST(HungarianTest, EmptyProblem) {
  const AssignmentResult r = SolveAssignment(AssignmentProblem{});
  EXPECT_TRUE(r.row_to_col.empty());
  EXPECT_DOUBLE_EQ(r.total_cost, 0.0);
}

// ---------------------------------------------------------------------------
// Differential tests: SolveAssignment (short side, no padding) against
// SolveAssignmentReference (the zero-padded square solver).

// Dispatch-shaped costs: negated margins in [-3, 1], a share of forbidden
// (unreachable) cells, rows repeated as co-located teams and columns
// repeated as demand replicas. Repeats make exactly tied optima common.
AssignmentProblem DispatchShaped(std::size_t rows, std::size_t cols,
                                 util::Rng& rng, double forbidden_share,
                                 bool repeat_rows, bool repeat_cols) {
  AssignmentProblem p;
  p.rows = rows;
  p.cols = cols;
  p.cost.resize(rows * cols);
  for (double& c : p.cost) {
    c = rng.Bernoulli(forbidden_share) ? kForbiddenCost : rng.Uniform(-3, 1);
  }
  if (repeat_rows) {
    for (std::size_t r = 1; r < rows; ++r) {
      if (!rng.Bernoulli(0.3)) continue;
      for (std::size_t c = 0; c < cols; ++c) p.at(r, c) = p.at(r - 1, c);
    }
  }
  if (repeat_cols) {
    for (std::size_t c = 1; c < cols; ++c) {
      if (!rng.Bernoulli(0.3)) continue;
      for (std::size_t r = 0; r < rows; ++r) p.at(r, c) = p.at(r, c - 1);
    }
  }
  return p;
}

// A valid injection that never uses a forbidden cell, whose reported total
// is the sum of its cells.
void ExpectValidAssignment(const AssignmentProblem& p,
                           const AssignmentResult& r) {
  ASSERT_EQ(r.row_to_col.size(), p.rows);
  std::vector<char> used(p.cols, 0);
  double sum = 0.0;
  for (std::size_t row = 0; row < p.rows; ++row) {
    const int col = r.row_to_col[row];
    if (col < 0) continue;
    ASSERT_LT(static_cast<std::size_t>(col), p.cols);
    EXPECT_FALSE(used[col]) << "column " << col << " assigned twice";
    used[col] = 1;
    EXPECT_LT(p.at(row, col), kForbiddenCost * 0.999)
        << "forbidden cell (" << row << ", " << col << ") assigned";
    sum += p.at(row, col);
  }
  EXPECT_NEAR(r.total_cost, sum, 1e-9 * std::max(1.0, std::abs(sum)));
}

void ExpectSameOptimum(const AssignmentProblem& p, const std::string& what) {
  SCOPED_TRACE(what);
  const AssignmentResult fast = SolveAssignment(p);
  const AssignmentResult ref = SolveAssignmentReference(p);
  ExpectValidAssignment(p, fast);
  EXPECT_LE(std::abs(fast.total_cost - ref.total_cost),
            1e-12 * std::max(1.0, std::abs(ref.total_cost)))
      << "fast " << fast.total_cost << " vs reference " << ref.total_cost;
}

TEST(HungarianDifferentialTest, SquareIsBitIdenticalToReference) {
  util::Rng rng(21);
  for (const std::size_t n : {1, 2, 3, 7, 16, 40, 90}) {
    for (int trial = 0; trial < 6; ++trial) {
      const AssignmentProblem p =
          DispatchShaped(n, n, rng, trial % 3 == 0 ? 0.0 : 0.2,
                         trial % 2 == 0, trial % 3 != 2);
      const AssignmentResult fast = SolveAssignment(p);
      const AssignmentResult ref = SolveAssignmentReference(p);
      EXPECT_EQ(fast.row_to_col, ref.row_to_col) << "n=" << n;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.total_cost),
                std::bit_cast<std::uint64_t>(ref.total_cost))
          << "n=" << n;
    }
  }
}

TEST(HungarianDifferentialTest, RectangularMatchesReferenceCost) {
  util::Rng rng(22);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 5}, {2, 9}, {5, 12}, {17, 40}, {30, 31}, {59, 127}, {77, 129}};
  for (const auto& [short_side, long_side] : shapes) {
    for (int trial = 0; trial < 4; ++trial) {
      const double forbidden = trial == 0 ? 0.0 : 0.1 * trial;
      const bool repeat_rows = trial % 2 == 1;
      const bool repeat_cols = trial >= 2;
      for (const bool wide : {true, false}) {
        const std::size_t rows = wide ? short_side : long_side;
        const std::size_t cols = wide ? long_side : short_side;
        ExpectSameOptimum(
            DispatchShaped(rows, cols, rng, forbidden, repeat_rows,
                           repeat_cols),
            std::to_string(rows) + "x" + std::to_string(cols) +
                " trial " + std::to_string(trial));
      }
    }
  }
}

TEST(HungarianDifferentialTest, AllForbiddenRowsAndColumns) {
  // A team with no reachable candidate and a candidate no team can reach
  // stay unassigned on both solvers, in both orientations.
  util::Rng rng(23);
  for (const bool wide : {true, false}) {
    const std::size_t rows = wide ? 6 : 11;
    const std::size_t cols = wide ? 11 : 6;
    AssignmentProblem p = DispatchShaped(rows, cols, rng, 0.2, false, false);
    for (std::size_t c = 0; c < cols; ++c) p.at(2, c) = kForbiddenCost;
    for (std::size_t r = 0; r < rows; ++r) p.at(r, 4) = kForbiddenCost;
    ExpectSameOptimum(p, wide ? "wide" : "tall");
    const AssignmentResult r = SolveAssignment(p);
    EXPECT_EQ(r.row_to_col[2], -1);
    for (const int col : r.row_to_col) EXPECT_NE(col, 4);
  }
}

TEST(HungarianDifferentialTest, BigFleetShapedRound) {
  // One round at the 300-team scale: ~250 decidable teams over ~90
  // candidate instances, a third of the pairs unreachable, co-located
  // teams and replicated deep-demand candidates.
  util::Rng rng(24);
  ExpectSameOptimum(DispatchShaped(250, 90, rng, 0.33, true, true),
                    "250x90");
}

// Minimum over every injection of the short side into the long side.
double BruteForceMin(const AssignmentProblem& p) {
  const bool wide = p.rows <= p.cols;
  const std::size_t n = wide ? p.rows : p.cols;
  const std::size_t m = wide ? p.cols : p.rows;
  auto cell = [&](std::size_t i, std::size_t j) {
    return wide ? p.at(i, j) : p.at(j, i);
  };
  std::vector<char> used(m, 0);
  double best = 1e300;
  auto recurse = [&](auto&& self, std::size_t i, double acc) -> void {
    if (i == n) {
      best = std::min(best, acc);
      return;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (used[j]) continue;
      used[j] = 1;
      self(self, i + 1, acc + cell(i, j));
      used[j] = 0;
    }
  };
  recurse(recurse, 0, 0.0);
  return best;
}

TEST(HungarianDifferentialTest, BruteForceAgreementRectangular) {
  util::Rng rng(25);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {1, 4}, {4, 1}, {2, 3}, {3, 2}, {3, 7}, {7, 3},
      {5, 5}, {4, 8}, {8, 4}, {6, 8}, {8, 6}};
  for (const auto& [rows, cols] : shapes) {
    for (int trial = 0; trial < 5; ++trial) {
      const AssignmentProblem p =
          DispatchShaped(rows, cols, rng, 0.0, trial % 2 == 1, trial >= 3);
      const AssignmentResult r = SolveAssignment(p);
      ExpectValidAssignment(p, r);
      EXPECT_NEAR(r.total_cost, BruteForceMin(p), 1e-9)
          << rows << "x" << cols << " trial " << trial;
      EXPECT_NEAR(SolveAssignmentReference(p).total_cost, r.total_cost,
                  1e-9);
    }
  }
}

TEST(HungarianDifferentialTest, ReferenceKeepsValidationThrows) {
  AssignmentProblem p = Make(1, 2, {1.0, std::nan("")});
  EXPECT_THROW(SolveAssignment(p), std::invalid_argument);
  EXPECT_THROW(SolveAssignmentReference(p), std::invalid_argument);
  p.cost.pop_back();
  EXPECT_THROW(SolveAssignment(p), std::invalid_argument);
  EXPECT_THROW(SolveAssignmentReference(p), std::invalid_argument);
}

TEST(HungarianDifferentialTest, DegenerateShapes) {
  // A side of length zero: nothing to assign, on both solvers.
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 4}, {3, 0}}) {
    AssignmentProblem p;
    p.rows = rows;
    p.cols = cols;
    const AssignmentResult fast = SolveAssignment(p);
    const AssignmentResult ref = SolveAssignmentReference(p);
    EXPECT_EQ(fast.row_to_col, std::vector<int>(rows, -1));
    EXPECT_EQ(ref.row_to_col, fast.row_to_col);
    EXPECT_EQ(fast.total_cost, 0.0);
  }
}

}  // namespace
}  // namespace mobirescue::opt
