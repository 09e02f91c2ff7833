// Cross-check of the Shenoy-Rudell (+ Maheshwari-Sapatnekar bound) pruning
// against the unpruned reference: for every candidate period on random
// graphs, the pruned and full constraint systems must have the same
// satisfiability, and every satisfying assignment of the pruned system must
// satisfy the full one (implied-constraint property).
#include <gtest/gtest.h>

#include "../common/wd_reference.h"
#include "base/rng.h"
#include "graph/difference_constraints.h"
#include "retime/period_constraints.h"

namespace mcrt {
namespace {

RetimeGraph random_graph(std::uint64_t seed, std::size_t vertices,
                         bool with_bounds) {
  Rng rng(seed);
  RetimeGraph g;
  std::vector<VertexId> vs;
  for (std::size_t i = 0; i < vertices; ++i) {
    vs.push_back(g.add_vertex(1 + static_cast<std::int64_t>(rng.below(9))));
  }
  g.add_edge(g.host(), vs[0], 0);
  for (std::size_t i = 0; i + 1 < vertices; ++i) {
    g.add_edge(vs[i], vs[i + 1], rng.below(3));
  }
  for (std::size_t i = 0; i < vertices; ++i) {
    const std::size_t a = rng.below(vertices);
    const std::size_t b = rng.below(vertices);
    if (a < b) {
      g.add_edge(vs[a], vs[b], rng.below(2));
    } else if (a > b) {
      g.add_edge(vs[a], vs[b], 1 + rng.below(2));
    }
  }
  g.add_edge(vs[vertices - 1], g.host(), 0);
  if (with_bounds) {
    for (std::size_t i = 0; i < vertices; ++i) {
      g.set_bounds(vs[i], -static_cast<std::int64_t>(rng.below(3)),
                   static_cast<std::int64_t>(rng.below(3)));
    }
  }
  return g;
}

class PruningProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(PruningProperty, SameFeasibilityAsUnpruned) {
  const auto [seed, with_bounds] = GetParam();
  const RetimeGraph g = random_graph(seed, 10, with_bounds);
  const auto candidates = testing::wd_path_delays(g);
  for (const std::int64_t phi : candidates) {
    std::vector<DifferenceConstraint> pruned;
    generate_circuit_constraints(g, pruned);
    generate_period_constraints(g, phi, pruned);
    std::vector<DifferenceConstraint> full;
    generate_circuit_constraints(g, full);
    generate_period_constraints_unpruned(g, phi, full);
    ASSERT_LE(pruned.size(), full.size());

    const auto pruned_solution =
        solve_difference_constraints(g.vertex_count(), pruned);
    const auto full_solution =
        solve_difference_constraints(g.vertex_count(), full);
    ASSERT_EQ(static_cast<bool>(pruned_solution),
              static_cast<bool>(full_solution))
        << "seed " << seed << " phi " << phi;
    if (!pruned_solution) continue;
    // The pruned system's solution must satisfy every full constraint
    // (the dropped ones are implied).
    for (const auto& c : full) {
      if (c.u == c.v) continue;
      EXPECT_LE((*pruned_solution)[c.u] - (*pruned_solution)[c.v], c.bound)
          << "seed " << seed << " phi " << phi << " pair (" << c.u << ","
          << c.v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PruningProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 11),
                       ::testing::Bool()),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_bounded" : "_free");
    });

}  // namespace
}  // namespace mcrt
