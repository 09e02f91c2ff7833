#include "graph/difference_constraints.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>

namespace mcrt {
namespace {

void expect_satisfies(const std::vector<std::int64_t>& x,
                      const std::vector<DifferenceConstraint>& cs) {
  for (const auto& c : cs) {
    EXPECT_LE(x[c.u] - x[c.v], c.bound)
        << "x" << c.u << " - x" << c.v << " <= " << c.bound;
  }
}

TEST(DifferenceConstraintsTest, FeasibleSystem) {
  std::vector<DifferenceConstraint> cs = {
      {0, 1, 3},   // x0 - x1 <= 3
      {1, 2, -2},  // x1 - x2 <= -2
      {2, 0, 1},   // x2 - x0 <= 1
  };
  const auto solution = solve_difference_constraints(3, cs);
  ASSERT_TRUE(solution);
  expect_satisfies(*solution, cs);
}

TEST(DifferenceConstraintsTest, InfeasibleNegativeCycle) {
  std::vector<DifferenceConstraint> cs = {
      {0, 1, 1},
      {1, 0, -2},  // sum of cycle bounds = -1 < 0
  };
  EXPECT_FALSE(solve_difference_constraints(2, cs));
}

TEST(DifferenceConstraintsTest, UnconstrainedVariablesGetZero) {
  const auto solution = solve_difference_constraints(4, {});
  ASSERT_TRUE(solution);
  for (const auto v : *solution) EXPECT_EQ(v, 0);
}

TEST(DifferenceConstraintsTest, EqualityViaTwoConstraints) {
  std::vector<DifferenceConstraint> cs = {
      {0, 1, 5},
      {1, 0, -5},  // forces x0 - x1 == 5
  };
  const auto solution = solve_difference_constraints(2, cs);
  ASSERT_TRUE(solution);
  EXPECT_EQ((*solution)[0] - (*solution)[1], 5);
}

TEST(DifferenceConstraintsTest, ChainPropagation) {
  // x0 <= x1 - 1 <= x2 - 2 <= x3 - 3
  std::vector<DifferenceConstraint> cs = {
      {0, 1, -1},
      {1, 2, -1},
      {2, 3, -1},
  };
  const auto solution = solve_difference_constraints(4, cs);
  ASSERT_TRUE(solution);
  expect_satisfies(*solution, cs);
  EXPECT_LE((*solution)[0], (*solution)[3] - 3);
}

TEST(DifferenceConstraintsTest, SelfConstraintNonNegativeIsFine) {
  std::vector<DifferenceConstraint> cs = {{0, 0, 0}};
  EXPECT_TRUE(solve_difference_constraints(1, cs));
}

TEST(DifferenceConstraintsTest, SelfConstraintNegativeInfeasible) {
  std::vector<DifferenceConstraint> cs = {{0, 0, -1}};
  EXPECT_FALSE(solve_difference_constraints(1, cs));
}

/// Textbook Bellman-Ford over the edge list: a virtual source at distance
/// 0 to every variable, |V| passes, then one more pass that still relaxes
/// an edge iff there is a negative cycle.
std::optional<std::vector<std::int64_t>> bellman_ford_reference(
    std::size_t n, const std::vector<DifferenceConstraint>& cs) {
  std::vector<std::int64_t> dist(n, 0);
  for (std::size_t pass = 0; pass < n; ++pass) {
    for (const auto& c : cs) {
      dist[c.u] = std::min(dist[c.u], dist[c.v] + c.bound);
    }
  }
  for (const auto& c : cs) {
    if (dist[c.v] + c.bound < dist[c.u]) return std::nullopt;
  }
  return dist;
}

TEST(DifferenceConstraintsTest, RandomSystemsMatchBellmanFordReference) {
  std::mt19937_64 rng(2024);
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 1 + rng() % 60;
    const std::size_t m = rng() % (3 * n + 1);
    // Half the systems are built around a hidden solution (always
    // feasible); the rest draw bounds freely and are often infeasible.
    const bool planted = trial % 2 == 0;
    std::vector<std::int64_t> hidden(n);
    for (auto& x : hidden) x = static_cast<std::int64_t>(rng() % 21) - 10;
    std::vector<DifferenceConstraint> cs;
    for (std::size_t i = 0; i < m; ++i) {
      const auto u = static_cast<std::uint32_t>(rng() % n);
      const auto v = static_cast<std::uint32_t>(rng() % n);
      std::int64_t bound = static_cast<std::int64_t>(rng() % 9) - 3;
      if (planted) bound += hidden[u] - hidden[v] + 3;
      cs.push_back({u, v, bound});
    }
    const auto expected = bellman_ford_reference(n, cs);
    const auto actual = solve_difference_constraints(n, cs);
    ASSERT_EQ(actual.has_value(), expected.has_value()) << "trial " << trial;
    if (expected) {
      EXPECT_EQ(*actual, *expected) << "trial " << trial;
      ++feasible;
    } else {
      ++infeasible;
    }
  }
  EXPECT_GT(feasible, 300u);
  EXPECT_GT(infeasible, 50u);
}

TEST(DifferenceConstraintsTest, ShortNegativeCycleRejectedEarly) {
  // x0 - x1 <= -1 and x1 - x0 <= 0 close a cycle of weight -1; a chain of
  // x(i+1) <= x(i) hangs off it, so every lap of the cycle would re-relax
  // the whole chain until the relax-count bound tripped.
  constexpr std::uint32_t n = 2000;
  std::vector<DifferenceConstraint> cs = {{0, 1, -1}, {1, 0, 0}};
  for (std::uint32_t i = 1; i + 1 < n; ++i) cs.push_back({i + 1, i, 0});
  std::size_t relaxations = 0;
  EXPECT_FALSE(solve_difference_constraints(n, cs, &relaxations));
  EXPECT_EQ(relaxations, n);  // the first walk, after |V| relaxations
}

TEST(DifferenceConstraintsTest, ParentCycleWalk) {
  std::vector<std::uint32_t> mark;
  const std::vector<std::uint32_t> tree = {kNoParent, 0, 0, 1, 3};
  EXPECT_FALSE(has_parent_cycle(tree, mark));
  const std::vector<std::uint32_t> cycle = {kNoParent, 3, 0, 4, 1};
  EXPECT_TRUE(has_parent_cycle(cycle, mark));
  const std::vector<std::uint32_t> self = {kNoParent, 1};
  EXPECT_TRUE(has_parent_cycle(self, mark));
}

}  // namespace
}  // namespace mcrt
