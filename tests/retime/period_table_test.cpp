// PeriodConstraintTable against the one-period generator and the W/D
// reference, on random bounded graphs:
//  - append() equals generate_period_constraints() element for element, at
//    every period of the table's range and after the bounds are tightened
//    post-build (the table prunes under the graph's current bounds);
//  - FEAS phase 1 (bisection over multiples of the delay gcd) finds the
//    smallest candidate period the W/D check accepts, also when the gcd is
//    1 (delays 3/5/7) and with zero-delay vertices;
//  - minperiod_retime with one table shared across tightened-bound calls
//    returns the same period and labels as a fresh call and as the W/D
//    reference, after a single sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/rng.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"

namespace mcrt {
namespace {

RetimeGraph random_graph(std::uint64_t seed, std::size_t vertices,
                         const std::vector<std::int64_t>& delays,
                         bool with_bounds) {
  Rng rng(seed);
  RetimeGraph g;
  std::vector<VertexId> vs;
  for (std::size_t i = 0; i < vertices; ++i) {
    vs.push_back(g.add_vertex(delays[rng.below(delays.size())]));
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

/// Narrows the bounds of about a third of the vertices; 0 stays admitted.
RetimeGraph tightened(const RetimeGraph& g, std::uint64_t seed) {
  Rng rng(seed);
  RetimeGraph out = g;
  for (std::size_t v = 1; v < out.vertex_count(); ++v) {
    if (rng.below(3) != 0) continue;
    const VertexId id{static_cast<std::uint32_t>(v)};
    const std::int64_t lower = out.lower_bound(id);
    const std::int64_t upper = out.upper_bound(id);
    out.set_bounds(id, -static_cast<std::int64_t>(rng.below(
                           static_cast<std::uint64_t>(-lower) + 1)),
                   static_cast<std::int64_t>(
                       rng.below(static_cast<std::uint64_t>(upper) + 1)));
  }
  return out;
}

void expect_same(const std::vector<DifferenceConstraint>& got,
                 const std::vector<DifferenceConstraint>& want,
                 const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].u, want[i].u) << where << " #" << i;
    EXPECT_EQ(got[i].v, want[i].v) << where << " #" << i;
    EXPECT_EQ(got[i].bound, want[i].bound) << where << " #" << i;
  }
}

/// W/D reference for min-period: the smallest candidate period that
/// bounded_feasible accepts, or the current period when none below it does.
std::int64_t reference_min_period(const RetimeGraph& g) {
  for (const std::int64_t phi : candidate_periods(g)) {
    if (phi >= g.period()) break;
    if (bounded_feasible(g, phi)) return phi;
  }
  return g.period();
}

const std::vector<std::vector<std::int64_t>> kDelaySets = {
    {1, 2, 3, 4, 5, 6, 7, 8, 9},  // the pruning tests' delays
    {3, 5, 7},                    // gcd 1 from coprime delays
    {0, 4, 6},                    // zero-delay vertices, gcd 2
    {0, 0, 10, 20},               // mostly zero, gcd 10
};

class PeriodTableProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(PeriodTableProperty, AppendMatchesGeneratorAcrossRangeAndBounds) {
  const auto [seed, delay_set] = GetParam();
  const RetimeGraph g = random_graph(seed, 12, kDelaySets[delay_set], true);
  const std::int64_t lo = unbounded_min_period(g);
  const std::int64_t hi = g.period();
  const std::size_t sweeps = retime_work_counters().wd_sweeps;
  PeriodConstraintTable table;
  table.build(g, lo, hi);
  EXPECT_EQ(retime_work_counters().wd_sweeps - sweeps, 1u);
  const RetimeGraph narrow = tightened(g, seed + 1000);
  for (std::int64_t phi = lo; phi <= hi; ++phi) {
    for (const RetimeGraph* graph : {&g, &narrow}) {
      std::vector<DifferenceConstraint> from_table;
      table.append(*graph, phi, from_table);
      std::vector<DifferenceConstraint> fresh;
      generate_period_constraints(*graph, phi, fresh);
      expect_same(from_table, fresh,
                  "seed " + std::to_string(seed) + " phi " +
                      std::to_string(phi) +
                      (graph == &g ? " built bounds" : " tightened bounds"));
    }
  }
  EXPECT_THROW(
      {
        std::vector<DifferenceConstraint> out;
        table.append(g, hi + 1, out);
      },
      std::logic_error);
}

TEST_P(PeriodTableProperty, CandidatesAreThePathDelaysInRange) {
  const auto [seed, delay_set] = GetParam();
  const RetimeGraph g = random_graph(seed, 12, kDelaySets[delay_set], true);
  // Reference: every W/D label, sorted and deduplicated at the end.
  std::vector<std::int64_t> all;
  for (std::size_t u = 1; u < g.vertex_count(); ++u) {
    const WdLabels labels =
        compute_wd_from_source(g, VertexId{static_cast<std::uint32_t>(u)});
    for (std::size_t v = 0; v < g.vertex_count(); ++v) {
      if (labels.reached[v]) all.push_back(labels.delay[v]);
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  EXPECT_EQ(candidate_periods(g), all);

  const std::int64_t lo = unbounded_min_period(g);
  PeriodConstraintTable table;
  table.build(g, lo, g.period());
  std::vector<std::int64_t> in_range;
  std::copy_if(all.begin(), all.end(), std::back_inserter(in_range),
               [&](std::int64_t d) { return lo <= d && d <= g.period(); });
  EXPECT_EQ(table.candidates(), in_range);
}

TEST_P(PeriodTableProperty, FeasPhaseOneMatchesWdReference) {
  const auto [seed, delay_set] = GetParam();
  const RetimeGraph g = random_graph(seed, 12, kDelaySets[delay_set], false);
  const std::size_t sweeps = retime_work_counters().wd_sweeps;
  const std::int64_t phase1 = unbounded_min_period(g);
  EXPECT_EQ(retime_work_counters().wd_sweeps, sweeps) << "phase 1 sweeps";
  EXPECT_EQ(phase1, reference_min_period(g)) << "seed " << seed;
  EXPECT_TRUE(bounded_feasible(g, phase1));
  const RetimeSolution solution = minperiod_retime(g);
  EXPECT_EQ(solution.period, phase1);
  EXPECT_LE(g.period(solution.r), phase1);
  EXPECT_TRUE(g.check_legal(solution.r).empty());
}

TEST_P(PeriodTableProperty, SharedTableMatchesFreshCallAndReference) {
  const auto [seed, delay_set] = GetParam();
  const RetimeGraph g = random_graph(seed, 12, kDelaySets[delay_set], true);
  PeriodConstraintTable table;
  RetimeGraph current = g;
  std::size_t shared_sweeps = 0;
  for (std::uint64_t round = 0; round < 4; ++round) {
    if (round > 0) current = tightened(current, seed * 31 + round);
    const std::size_t before = retime_work_counters().wd_sweeps;
    const RetimeSolution shared =
        minperiod_retime(current, FeasImpl::kCsr, nullptr, &table);
    shared_sweeps += retime_work_counters().wd_sweeps - before;
    const RetimeSolution fresh = minperiod_retime(current);
    const std::string where =
        "seed " + std::to_string(seed) + " round " + std::to_string(round);
    EXPECT_EQ(shared.period, fresh.period) << where;
    EXPECT_EQ(shared.r, fresh.r) << where;

    const std::int64_t want = reference_min_period(current);
    EXPECT_EQ(shared.period, want) << where;
    if (want < current.period()) {
      EXPECT_EQ(shared.r, *bounded_feasible(current, want)) << where;
    } else {
      EXPECT_EQ(shared.r, std::vector<std::int64_t>(current.vertex_count(), 0))
          << where;
    }
    EXPECT_TRUE(current.check_legal(shared.r).empty()) << where;
  }
  EXPECT_EQ(shared_sweeps, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PeriodTableProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 9),
                       ::testing::Range(0, 4)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_delays" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PeriodTableTest, OnePeriodTableIsTheGenerator) {
  // A hand graph: the generator is a one-period table, so both paths agree
  // and a repeated append on one table is stable.
  RetimeGraph g;
  const VertexId a = g.add_vertex(3);
  const VertexId b = g.add_vertex(5);
  const VertexId c = g.add_vertex(7);
  g.add_edge(g.host(), a, 0);
  g.add_edge(a, b, 0);
  g.add_edge(b, c, 0);
  g.add_edge(c, a, 2);
  g.add_edge(c, g.host(), 0);
  const std::size_t sweeps = retime_work_counters().wd_sweeps;
  PeriodConstraintTable table;
  table.build(g, 8, 8);
  std::vector<DifferenceConstraint> once;
  table.append(g, 8, once);
  std::vector<DifferenceConstraint> twice;
  table.append(g, 8, twice);
  EXPECT_EQ(retime_work_counters().wd_sweeps - sweeps, 1u);
  std::vector<DifferenceConstraint> generated;
  generate_period_constraints(g, 8, generated);
  EXPECT_EQ(retime_work_counters().wd_sweeps - sweeps, 2u);
  expect_same(once, generated, "first append");
  expect_same(twice, generated, "second append");
}

}  // namespace
}  // namespace mcrt
