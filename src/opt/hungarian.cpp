#include "opt/hungarian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace mobirescue::opt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

void Validate(const AssignmentProblem& problem, const char* who) {
  if (problem.cost.size() != problem.rows * problem.cols) {
    throw std::invalid_argument(std::string(who) + ": cost size mismatch");
  }
  for (double c : problem.cost) {
    if (!std::isfinite(c)) {
      throw std::invalid_argument(std::string(who) +
                                  ": non-finite cost (use kForbiddenCost)");
    }
  }
}

// Shortest augmenting paths with potentials (e-maxx formulation, 1-indexed
// internally) over an n x m row-major cost block with n <= m: every row is
// matched, m - n columns stay free. Returns p, where p[j] is the 1-based row
// matched to column j (0 when column j is free). Each of the n phases scans
// the m columns once per visited column: O(n^2 m).
std::vector<std::size_t> ShortestAugmentingPaths(const double* cost,
                                                 std::size_t n,
                                                 std::size_t m) {
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<std::size_t> p(m + 1, 0), way(m + 1, 0);
  std::vector<double> minv(m + 1);
  std::vector<char> used(m + 1);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = p[j0];
      const double* row = cost + (i0 - 1) * m;
      const double ui = u[i0];
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = row[j - 1] - ui - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  return p;
}

}  // namespace

AssignmentResult SolveAssignment(const AssignmentProblem& problem) {
  Validate(problem, "SolveAssignment");
  AssignmentResult result;
  result.row_to_col.assign(problem.rows, -1);
  if (problem.rows == 0 || problem.cols == 0) return result;

  // Augment from the short side. A tall problem is solved transposed, so
  // its columns become the matched side.
  const bool transposed = problem.rows > problem.cols;
  std::vector<double> scratch;
  const double* cost = problem.cost.data();
  std::size_t n = problem.rows, m = problem.cols;
  if (transposed) {
    std::swap(n, m);
    scratch.resize(problem.cost.size());
    for (std::size_t r = 0; r < problem.rows; ++r) {
      for (std::size_t c = 0; c < problem.cols; ++c) {
        scratch[c * problem.rows + r] = problem.at(r, c);
      }
    }
    cost = scratch.data();
  }
  const std::vector<std::size_t> p = ShortestAugmentingPaths(cost, n, m);

  for (std::size_t j = 1; j <= m; ++j) {
    if (p[j] == 0) continue;
    const std::size_t r = transposed ? j - 1 : p[j] - 1;
    const std::size_t c = transposed ? p[j] - 1 : j - 1;
    // Skip forbidden assignments encoded with kForbiddenCost.
    if (problem.at(r, c) >= kForbiddenCost * 0.999) continue;
    result.row_to_col[r] = static_cast<int>(c);
    result.total_cost += problem.at(r, c);
  }
  return result;
}

AssignmentResult SolveAssignmentReference(const AssignmentProblem& problem) {
  Validate(problem, "SolveAssignmentReference");
  // Pad to square with zero-cost dummy cells: dummy rows absorb surplus
  // columns and vice versa.
  const std::size_t n = std::max(problem.rows, problem.cols);
  if (n == 0) return {};

  auto cost = [&](std::size_t r, std::size_t c) -> double {
    if (r < problem.rows && c < problem.cols) return problem.at(r, c);
    return 0.0;
  };

  // e-maxx potentials formulation (1-indexed internally).
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<std::size_t> p(n + 1, 0), way(n + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<char> used(n + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = p[j0];
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.row_to_col.assign(problem.rows, -1);
  for (std::size_t j = 1; j <= n; ++j) {
    const std::size_t i = p[j];
    if (i >= 1 && i <= problem.rows && j <= problem.cols) {
      // Skip forbidden assignments encoded with kForbiddenCost.
      if (problem.at(i - 1, j - 1) >= kForbiddenCost * 0.999) continue;
      result.row_to_col[i - 1] = static_cast<int>(j - 1);
      result.total_cost += problem.at(i - 1, j - 1);
    }
  }
  return result;
}

AssignmentResult SolveAssignmentGreedy(const AssignmentProblem& problem) {
  AssignmentResult result;
  result.row_to_col.assign(problem.rows, -1);
  std::vector<char> col_used(problem.cols, 0);
  for (std::size_t r = 0; r < problem.rows; ++r) {
    int best = -1;
    double best_c = kForbiddenCost * 0.999;
    for (std::size_t c = 0; c < problem.cols; ++c) {
      if (col_used[c]) continue;
      if (problem.at(r, c) < best_c) {
        best_c = problem.at(r, c);
        best = static_cast<int>(c);
      }
    }
    if (best >= 0) {
      col_used[best] = 1;
      result.row_to_col[r] = best;
      result.total_cost += best_c;
    }
  }
  return result;
}

}  // namespace mobirescue::opt
