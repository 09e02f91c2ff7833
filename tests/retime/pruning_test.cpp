// Cross-check of the period-box and Shenoy-Rudell pruning against the
// unpruned reference: for every candidate period on random graphs, every
// emitted pair is a pair of the full system with the same bound, every
// emitted host (box) constraint holds at the full system's greatest and
// least solutions, the pruned and full constraint systems have the same
// satisfiability, and every satisfying assignment of the pruned system
// satisfies the full one (implied-constraint property).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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

/// The greatest (or, with `least`, the least) solution with x(host) = 0:
/// shortest constraint paths from the host (to it), by Bellman-Ford;
/// +-kInf where no path bounds a variable. Requires a feasible system.
std::vector<std::int64_t> extreme_solution(
    std::size_t n, const std::vector<DifferenceConstraint>& constraints,
    bool least) {
  constexpr std::int64_t kInf = INT64_MAX / 4;
  std::vector<std::int64_t> dist(n, kInf);
  dist[0] = 0;
  for (std::size_t round = 0; round < n; ++round) {
    for (const auto& c : constraints) {
      // x(u) <= x(v) + b; for the least solution, -x(v) <= -x(u) + b.
      const std::uint32_t from = least ? c.u : c.v;
      const std::uint32_t to = least ? c.v : c.u;
      if (dist[from] < kInf) {
        dist[to] = std::min(dist[to], dist[from] + c.bound);
      }
    }
  }
  if (least) {
    for (auto& d : dist) d = -d;
  }
  return dist;
}

class PruningProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(PruningProperty, SameFeasibilityAsUnpruned) {
  const auto [seed, with_bounds] = GetParam();
  const RetimeGraph g = random_graph(seed, 10, with_bounds);
  const auto candidates = testing::wd_path_delays(g);
  for (const std::int64_t phi : candidates) {
    std::vector<DifferenceConstraint> emitted;
    generate_period_constraints(g, phi, emitted);
    std::vector<DifferenceConstraint> full_period;
    generate_period_constraints_unpruned(g, phi, full_period);
    std::vector<DifferenceConstraint> pruned;
    generate_circuit_constraints(g, pruned);
    pruned.insert(pruned.end(), emitted.begin(), emitted.end());
    std::vector<DifferenceConstraint> full;
    generate_circuit_constraints(g, full);
    full.insert(full.end(), full_period.begin(), full_period.end());

    // Pairs are a subset of the full system's, with the same bounds.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> pairs;
    for (const auto& c : full_period) pairs[{c.u, c.v}] = c.bound;
    const bool feasible =
        static_cast<bool>(solve_difference_constraints(g.vertex_count(), full));
    std::vector<const DifferenceConstraint*> host_constraints;
    std::size_t emitted_pairs = 0;
    for (const auto& c : emitted) {
      if (c.u == c.v) continue;  // unsatisfiable marker, checked below
      if (c.u == g.host().value() || c.v == g.host().value()) {
        host_constraints.push_back(&c);
        continue;
      }
      ++emitted_pairs;
      const auto it = pairs.find({c.u, c.v});
      ASSERT_NE(it, pairs.end()) << "seed " << seed << " phi " << phi
                                 << " pair (" << c.u << "," << c.v << ")";
      EXPECT_EQ(it->second, c.bound) << "seed " << seed << " phi " << phi;
    }
    EXPECT_LE(emitted_pairs, full_period.size());
    // Host constraints are implied: they hold at both extreme solutions.
    if (feasible) {
      for (const bool least : {false, true}) {
        const auto r = extreme_solution(g.vertex_count(), full, least);
        for (const DifferenceConstraint* c : host_constraints) {
          EXPECT_LE(r[c->u] - r[c->v], c->bound)
              << "seed " << seed << " phi " << phi << " host constraint ("
              << c->u << "," << c->v << ") at the "
              << (least ? "least" : "greatest") << " solution";
        }
      }
    }

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
