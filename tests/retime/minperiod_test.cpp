#include "retime/minperiod.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "../common/wd_reference.h"
#include "base/rng.h"
#include "mcretime/lower.h"
#include "mcretime/mc_retime.h"
#include "retime/feas.h"
#include "retime/period_constraints.h"
#include "workload/generator.h"

namespace mcrt {
namespace {

RetimeGraph correlator() {
  RetimeGraph g;
  const VertexId v1 = g.add_vertex(7, "v7");
  const VertexId v2 = g.add_vertex(3, "a3");
  const VertexId v3 = g.add_vertex(3, "b3");
  const VertexId v4 = g.add_vertex(3, "c3");
  g.add_edge(v1, v2, 1);
  g.add_edge(v2, v3, 1);
  g.add_edge(v3, v4, 1);
  g.add_edge(v4, v1, 0);
  return g;
}

/// Random legal graph: pipeline + feedback with host closure.
RetimeGraph random_graph(std::uint64_t seed, std::size_t vertices) {
  Rng rng(seed);
  RetimeGraph g;
  std::vector<VertexId> vs;
  for (std::size_t i = 0; i < vertices; ++i) {
    vs.push_back(g.add_vertex(1 + static_cast<std::int64_t>(rng.below(9))));
  }
  // Forward chain guarantees connectivity; extra random forward edges;
  // a few back edges with weight >= 1 (legal cycles).
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
  return g;
}

TEST(MinPeriodTest, CorrelatorOptimum) {
  const RetimeGraph g = correlator();
  const RetimeSolution solution = minperiod_retime(g);
  ASSERT_TRUE(solution.feasible);
  EXPECT_EQ(solution.period, 7);  // v1's own delay is the floor
  EXPECT_TRUE(g.check_legal(solution.r).empty());
  EXPECT_EQ(g.period(solution.r), 7);
}

TEST(MinPeriodTest, NeverWorseThanCurrent) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RetimeGraph g = random_graph(seed, 12);
    const RetimeSolution solution = minperiod_retime(g);
    ASSERT_TRUE(solution.feasible) << "seed " << seed;
    EXPECT_LE(solution.period, g.period()) << "seed " << seed;
    EXPECT_TRUE(g.check_legal(solution.r).empty())
        << "seed " << seed << ": " << g.check_legal(solution.r);
    EXPECT_EQ(g.period(solution.r), solution.period) << "seed " << seed;
  }
}

TEST(MinPeriodTest, OptimalityAgainstFeasScan) {
  // The period returned must equal the smallest phi FEAS accepts.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RetimeGraph g = random_graph(seed, 9);
    const RetimeSolution solution = minperiod_retime(g);
    ASSERT_TRUE(solution.feasible);
    EXPECT_TRUE(feas_check(g, solution.period));
    EXPECT_FALSE(feas_check(g, solution.period - 1))
        << "seed " << seed << " claims " << solution.period
        << " but less is feasible";
  }
}

TEST(MinPeriodTest, PinnedBoundsRestrictSolution) {
  RetimeGraph g = correlator();
  // Pin every vertex: retiming cannot move anything, so the minimum period
  // equals the current period.
  for (std::uint32_t v = 1; v <= 4; ++v) {
    g.set_bounds(VertexId{v}, 0, 0);
  }
  const RetimeSolution solution = minperiod_retime(g);
  ASSERT_TRUE(solution.feasible);
  EXPECT_EQ(solution.period, g.period());
  for (std::uint32_t v = 1; v <= 4; ++v) {
    EXPECT_EQ(solution.r[v], 0);
  }
}

TEST(MinPeriodTest, PartialBoundsBetweenExtremes) {
  RetimeGraph g = correlator();
  g.set_bounds(VertexId{2}, 0, 0);  // pin only one vertex
  const RetimeSolution bounded = minperiod_retime(g);
  RetimeGraph free_graph = correlator();
  const RetimeSolution free_solution = minperiod_retime(free_graph);
  ASSERT_TRUE(bounded.feasible);
  EXPECT_GE(bounded.period, free_solution.period);
  EXPECT_LE(bounded.period, g.period());
  EXPECT_TRUE(g.check_legal(bounded.r).empty());
}

TEST(MinPeriodTest, BoundedMatchesUnboundedWhenBoundsAreLoose) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RetimeGraph g = random_graph(seed, 10);
    for (std::size_t v = 1; v < g.vertex_count(); ++v) {
      g.set_bounds(VertexId{static_cast<std::uint32_t>(v)}, -100, 100);
    }
    RetimeGraph unbounded = random_graph(seed, 10);
    const RetimeSolution a = minperiod_retime(g);
    const RetimeSolution b = minperiod_retime(unbounded);
    ASSERT_TRUE(a.feasible);
    EXPECT_EQ(a.period, b.period) << "seed " << seed;
  }
}

TEST(MinPeriodTest, ZeroWeightChainDelayNotUnderestimated) {
  // Regression: D(u,v) must be the max delay among min-weight paths. With
  // zero-weight edges a -> c and a -> b -> c, the longer-delay route via b
  // defines D(a,c); a naive lexicographic Dijkstra can settle c with the
  // direct route's smaller delay first and emit too-weak constraints,
  // making the constraint-based (bounded) path report an unachievable
  // period. Compare against FEAS, which computes arrivals exactly.
  auto build = [] {
    RetimeGraph g;
    const VertexId a = g.add_vertex(5, "a");
    const VertexId b = g.add_vertex(3, "b");
    const VertexId c = g.add_vertex(10, "c");
    g.add_edge(g.host(), a, 2);
    g.add_edge(a, b, 0);
    g.add_edge(b, c, 0);
    g.add_edge(a, c, 0);
    g.add_edge(c, g.host(), 0);
    return g;
  };
  const RetimeSolution unbounded = minperiod_retime(build());
  RetimeGraph bounded_graph = build();
  for (std::uint32_t v = 1; v <= 3; ++v) {
    bounded_graph.set_bounds(VertexId{v}, -10, 10);  // loose: same optimum
  }
  const RetimeSolution bounded = minperiod_retime(bounded_graph);
  ASSERT_TRUE(unbounded.feasible && bounded.feasible);
  EXPECT_EQ(bounded.period, unbounded.period);
  EXPECT_EQ(bounded_graph.period(bounded.r), bounded.period);
}

TEST(MinPeriodTest, BoundedSolutionAchievesClaimedPeriod) {
  // Stronger randomized regression for the same bug: on bounded graphs the
  // labels returned must actually realize the claimed period.
  for (std::uint64_t seed = 50; seed <= 70; ++seed) {
    RetimeGraph g = random_graph(seed, 12);
    for (std::size_t v = 1; v < g.vertex_count(); ++v) {
      g.set_bounds(VertexId{static_cast<std::uint32_t>(v)}, -3, 3);
    }
    const RetimeSolution solution = minperiod_retime(g);
    ASSERT_TRUE(solution.feasible) << "seed " << seed;
    EXPECT_EQ(g.period(solution.r), solution.period) << "seed " << seed;
  }
}

TEST(MinPeriodTest, BoundedFeasibleHonorsBounds) {
  RetimeGraph g = correlator();
  g.set_bounds(VertexId{1}, 0, 0);
  const auto r = bounded_feasible(g, g.period());
  ASSERT_TRUE(r);
  EXPECT_TRUE(g.check_legal(*r).empty()) << g.check_legal(*r);
}

// --- Bounds that exclude 0 ----------------------------------------------
// Relocation retries in delta space create these: r = 0 is illegal, so
// the current period says nothing about feasibility and the optimum may
// lie above it.

/// host -> a -> b [-> c] -> host, one register on every internal edge, a
/// pinned at 0 like an interface vertex and b forced to r = -1: b's
/// register moves from a -> b onto b's out-edge, joining a and b into one
/// zero-weight path of delay 8.
RetimeGraph forced_move_graph(bool with_c) {
  RetimeGraph g;
  const VertexId a = g.add_vertex(3, "a");
  const VertexId b = g.add_vertex(5, "b");
  g.add_edge(g.host(), a, 0);
  g.add_edge(a, b, 1);
  if (with_c) {
    const VertexId c = g.add_vertex(4, "c");
    g.add_edge(b, c, 1);
    g.add_edge(c, g.host(), 0);
  } else {
    g.add_edge(b, g.host(), 0);
  }
  g.set_bounds(a, 0, 0);
  g.set_bounds(b, -1, -1);
  return g;
}

/// minperiod_retime agrees with the W/D scan: the smallest path delay
/// bounded_feasible() accepts, with its labels, legal and meeting it.
void expect_wd_scan_solution(const RetimeGraph& g, std::int64_t want) {
  const RetimeSolution solution = minperiod_retime(g);
  ASSERT_EQ(testing::wd_min_period(g), want);
  ASSERT_TRUE(solution.feasible);
  EXPECT_EQ(solution.period, want);
  EXPECT_EQ(solution.r, *bounded_feasible(g, want));
  EXPECT_EQ(g.check_legal(solution.r), "");
  EXPECT_LE(g.period(solution.r), want);
}

TEST(MinPeriodTest, BoundsExcludingZeroAdmitNothingAtOrBelowCurrent) {
  // The current period 5 is the largest delay, so nothing lies below it,
  // and the forced move rules it out too: the optimum is the delay sum 8.
  const RetimeGraph g = forced_move_graph(false);
  ASSERT_EQ(g.period(), 5);
  expect_wd_scan_solution(g, 8);
}

TEST(MinPeriodTest, OptimumAboveCurrentPeriodBelowDelaySum) {
  // c's registers stay put, so the optimum 8 lies strictly between the
  // current period 5 and the delay sum 12 the search starts from.
  const RetimeGraph g = forced_move_graph(true);
  ASSERT_EQ(g.period(), 5);
  expect_wd_scan_solution(g, 8);
}

TEST(MinPeriodTest, ContradictoryBoundsAreInfeasible) {
  // b's out-edge carries no register, so legality caps r(b) at 0.
  RetimeGraph g = forced_move_graph(false);
  g.set_bounds(VertexId{2}, 1, 1);
  EXPECT_FALSE(testing::wd_min_period(g));
  EXPECT_FALSE(minperiod_retime(g).feasible);
  // An empty box.
  RetimeGraph empty = correlator();
  empty.set_bounds(VertexId{3}, 1, 0);
  EXPECT_FALSE(testing::wd_min_period(empty));
  EXPECT_FALSE(minperiod_retime(empty).feasible);
}

TEST(MinPeriodTest, BoundsExcludingZeroWithAllDelaysZero) {
  // Every delay 0: the only candidate period is 0.
  RetimeGraph g;
  const VertexId a = g.add_vertex(0, "a");
  const VertexId b = g.add_vertex(0, "b");
  g.add_edge(g.host(), a, 0);
  g.add_edge(a, b, 1);
  g.add_edge(b, g.host(), 0);
  g.set_bounds(a, 0, 0);
  g.set_bounds(b, -1, -1);
  expect_wd_scan_solution(g, 0);
  g.set_bounds(b, 1, 1);
  EXPECT_FALSE(minperiod_retime(g).feasible);
}

// --- Random graphs over four delay sets, against the W/D reference --------
// The suite keeps the name it had when these properties were checked
// against a multi-period W/D constraint table, so its test ids stay
// stable. Checked here:
//  - the period constraints min-area generates once per period serve the
//    tightened bounds of later retries: appended to the tightened graph's
//    circuit constraints they give the labels of a fresh generation, and
//    those of the bounded FEAS;
//  - the bisection over multiples of the delay gcd finds the smallest
//    candidate period the W/D check accepts, also when the gcd is 1
//    (delays 3/5/7) and with zero-delay vertices, without a W/D sweep;
//  - repeated calls under tightened bounds (relocation retries) return the
//    W/D reference's period and labels, without a W/D sweep.

RetimeGraph random_delay_graph(std::uint64_t seed, std::size_t vertices,
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

/// minperiod_retime against the W/D reference: the same period, and the
/// same labels (all 0 when no smaller period is feasible), legal.
void expect_reference_solution(const RetimeGraph& g, const std::string& where) {
  const RetimeSolution solution = minperiod_retime(g);
  const std::int64_t want = *testing::wd_min_period(g);
  EXPECT_EQ(solution.period, want) << where;
  if (want < g.period()) {
    EXPECT_EQ(solution.r, *bounded_feasible(g, want)) << where;
  } else {
    EXPECT_EQ(solution.r, std::vector<std::int64_t>(g.vertex_count(), 0))
        << where;
  }
  EXPECT_TRUE(g.check_legal(solution.r).empty()) << where;
  EXPECT_LE(g.period(solution.r), solution.period) << where;
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
  const RetimeGraph g =
      random_delay_graph(seed, 12, kDelaySets[delay_set], true);
  const RetimeGraph narrow = tightened(g, seed + 1000);
  for (std::int64_t phi = minperiod_retime(g).period; phi <= g.period();
       ++phi) {
    const std::size_t sweeps = retime_work_counters().wd_sweeps;
    std::vector<DifferenceConstraint> kept;
    generate_period_constraints(g, phi, kept);
    EXPECT_EQ(retime_work_counters().wd_sweeps - sweeps, 1u);
    for (const RetimeGraph* graph : {&g, &narrow}) {
      const std::string where =
          "seed " + std::to_string(seed) + " phi " + std::to_string(phi) +
          (graph == &g ? " built bounds" : " tightened bounds");
      const auto reused = bounded_feasible(*graph, phi, &kept);
      EXPECT_EQ(reused, bounded_feasible(*graph, phi)) << where;
      EXPECT_EQ(reused, feas_check(*graph, phi)) << where;
    }
  }
}

TEST_P(PeriodTableProperty, CandidatesAreThePathDelaysInRange) {
  const auto [seed, delay_set] = GetParam();
  const RetimeGraph g =
      random_delay_graph(seed, 12, kDelaySets[delay_set], true);
  const std::vector<std::int64_t> all = testing::wd_path_delays(g);

  // The bisection probes multiples of the delay gcd; the optimum it lands
  // on is still a path delay, in [max d(v), current period].
  const RetimeSolution solution = minperiod_retime(g);
  EXPECT_TRUE(std::binary_search(all.begin(), all.end(), solution.period))
      << solution.period;
  const auto delays = g.delays();
  EXPECT_GE(solution.period, *std::max_element(delays.begin(), delays.end()));
  EXPECT_LE(solution.period, g.period());
}

TEST_P(PeriodTableProperty, FeasPhaseOneMatchesWdReference) {
  const auto [seed, delay_set] = GetParam();
  const RetimeGraph g =
      random_delay_graph(seed, 12, kDelaySets[delay_set], false);
  const std::size_t sweeps = retime_work_counters().wd_sweeps;
  EXPECT_TRUE(minperiod_retime(g).feasible);
  EXPECT_EQ(retime_work_counters().wd_sweeps, sweeps) << "min-period sweeps";
  expect_reference_solution(g, "seed " + std::to_string(seed));
}

TEST_P(PeriodTableProperty, SharedTableMatchesFreshCallAndReference) {
  const auto [seed, delay_set] = GetParam();
  RetimeGraph current =
      random_delay_graph(seed, 12, kDelaySets[delay_set], true);
  for (std::uint64_t round = 0; round < 4; ++round) {
    if (round > 0) current = tightened(current, seed * 31 + round);
    const std::size_t before = retime_work_counters().wd_sweeps;
    const RetimeSolution solution = minperiod_retime(current);
    EXPECT_EQ(retime_work_counters().wd_sweeps, before);
    EXPECT_EQ(minperiod_retime(current).r, solution.r);
    expect_reference_solution(current, "seed " + std::to_string(seed) +
                                           " round " + std::to_string(round));
  }
}

// The work gate of the quick bench designs: the scaled 2k and 4k designs,
// every LUT at delay 10, prepared for the min-period objective and lowered.
// FEAS settles them in a few probes with no W/D sweep; a change that needs
// more probes, rounds or any difference-constraint relaxation shows here.
TEST(MinPeriodWorkTest, ScaledDesignsStayWithinTheirProbeBudget) {
  for (const std::size_t gates : {2000, 4000}) {
    SCOPED_TRACE("s" + std::to_string(gates));
    Netlist circuit = generate_circuit(scaled_profile(gates, gates + 301));
    for (std::uint32_t v = 0; v < circuit.node_count(); ++v) {
      if (circuit.node(NodeId{v}).kind == NodeKind::kLut) {
        circuit.set_node_delay(NodeId{v}, 10);
      }
    }
    McRetimeOptions options;
    options.objective = McRetimeOptions::Objective::kMinPeriod;
    const McPrepared prepared = prepare_mc_graph(circuit, options);
    const RetimeGraph graph =
        lower_to_retime_graph(prepared.graph, prepared.bounds);

    const RetimeWorkCounters before = retime_work_counters();
    const RetimeSolution solution = minperiod_retime(graph);
    const RetimeWorkCounters work = retime_work_counters() - before;
    ASSERT_TRUE(solution.feasible);
    EXPECT_EQ(solution.period, 170);
    EXPECT_LE(work.feas_probes, 4u);
    EXPECT_LE(work.feas_rounds, 4u);
    EXPECT_EQ(work.dc_relaxations, 0u);
    EXPECT_EQ(work.wd_sweeps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PeriodTableProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 9),
                       ::testing::Range(0, 4)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_delays" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mcrt
