// Bounded FEAS vs an independent formulation of the same question:
// Leiserson-Saxe's W/D period constraints, plus the circuit and class-bound
// constraints, solved by SPFA (bounded_feasible()). FEAS lowers labels
// round by round from departure times; the W/D check solves a
// difference-constraint system built from all-pairs path data. The two
// share nothing beyond the graph, so their agreement on every probed
// period - verdict and labels, since both return the least solution >= 0
// - and on the minimum period checks the formulation rather than one
// copy of the code against another. Graphs are probed without bounds, with
// their lowered class bounds, and with random bounds, including bounds
// that exclude 0 and bounds no labeling meets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "../common/wd_reference.h"
#include "base/rng.h"
#include "mcretime/lower.h"
#include "mcretime/maximal_retiming.h"
#include "mcretime/mcgraph.h"
#include "retime/feas.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"
#include "workload/generator.h"

namespace mcrt {
namespace {

// Lowered retiming graph of a workload circuit with unit LUT delays, so the
// timing problem is non-degenerate, with its §4.1 class bounds.
RetimeGraph bounded_lowered_graph(const CircuitProfile& profile) {
  Netlist circuit = generate_circuit(profile);
  set_default_lut_delays(circuit, 10);
  const McGraph mc = build_mc_graph(circuit);
  const MaximalRetimingResult maximal = compute_mc_bounds(mc);
  return lower_to_retime_graph(mc, maximal.bounds);
}

// The same graph without its class bounds: the unbounded problem.
RetimeGraph lowered_graph(const CircuitProfile& profile) {
  return bounded_lowered_graph(profile).without_bounds();
}

/// Random legal graph: a pipeline with forward edges and registered back
/// edges, closed through the host.
RetimeGraph random_graph(Rng& rng, std::size_t vertices) {
  RetimeGraph g;
  std::vector<VertexId> vs;
  for (std::size_t i = 0; i < vertices; ++i) {
    vs.push_back(g.add_vertex(1 + static_cast<std::int64_t>(rng.below(9))));
  }
  g.add_edge(g.host(), vs[0], rng.below(2));
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

/// Bounds on about two thirds of the vertices: mostly boxes around 0,
/// some that exclude 0 (r_min > 0 or r_max < 0, as window retries
/// create), some one-sided, and now and then an empty box no labeling
/// meets.
void set_random_bounds(Rng& rng, RetimeGraph& g) {
  for (std::uint32_t v = 1; v < g.vertex_count(); ++v) {
    const auto pick = [&](std::uint64_t span) {
      return static_cast<std::int64_t>(rng.below(span));
    };
    std::int64_t lower = -RetimeGraph::kNoBound;
    std::int64_t upper = RetimeGraph::kNoBound;
    switch (rng.below(12)) {
      case 0:
      case 1:
      case 2:
      case 3:
        lower = -pick(3);
        upper = pick(3);
        break;
      case 4:  // excludes 0 from above
        upper = -1 - pick(2);
        lower = upper - pick(3);
        break;
      case 5:  // excludes 0 from below
        lower = 1 + pick(2);
        upper = lower + pick(3);
        break;
      case 6:
        upper = pick(3) - 1;
        break;
      case 7:
        lower = 1 - pick(3);
        break;
      default:
        break;
    }
    if (rng.below(80) == 0) {
      lower = pick(2);
      upper = lower - 1;
    }
    g.set_bounds(VertexId{v}, lower, upper);
  }
}

RetimeGraph hand_graph() {
  RetimeGraph g;
  const VertexId v1 = g.add_vertex(7, "v7");
  const VertexId v2 = g.add_vertex(3, "a3");
  const VertexId v3 = g.add_vertex(3, "b3");
  const VertexId v4 = g.add_vertex(3, "c3");
  g.add_edge(v1, v2, 1);
  g.add_edge(v2, v3, 1);
  g.add_edge(v3, v4, 1);
  g.add_edge(v4, v1, 0);
  // Host edges pin the interface like lowered graphs do.
  g.add_edge(g.host(), v1, 1);
  g.add_edge(v4, g.host(), 0);
  return g;
}

std::vector<CircuitProfile> workload_profiles() {
  std::vector<CircuitProfile> profiles = paper_suite();
  profiles.resize(3);
  const std::vector<CircuitProfile> extra = random_suite(5, 99);
  profiles.insert(profiles.end(), extra.begin(), extra.end());
  return profiles;
}

/// Same verdict and identical labels; accepted labels are legal (w_r >= 0,
/// bounds, r(host) = 0) and meet phi. Returns the verdict.
bool expect_probe_agreement(const RetimeGraph& graph, std::int64_t phi) {
  const auto feas = feas_check(graph, phi);
  const auto wd = bounded_feasible(graph, phi);
  EXPECT_EQ(feas.has_value(), wd.has_value()) << "phi=" << phi;
  if (feas && wd) {
    EXPECT_EQ(*feas, *wd) << "phi=" << phi;
    EXPECT_EQ(graph.check_legal(*feas), "") << "phi=" << phi;
    EXPECT_LE(graph.period(*feas), phi) << "phi=" << phi;
  }
  return feas.has_value();
}

// minperiod_retime's period must be the smallest candidate the W/D check
// accepts: W/D accepts it, with the same labels, and refuses the candidate
// just below (feasibility is monotone in phi). The graph's bounds admit 0.
void expect_minperiod_is_wd_optimum(const RetimeGraph& graph) {
  const RetimeSolution solution = minperiod_retime(graph);
  ASSERT_TRUE(solution.feasible);
  EXPECT_EQ(graph.check_legal(solution.r), "");
  EXPECT_LE(graph.period(solution.r), solution.period);
  const auto wd = bounded_feasible(graph, solution.period);
  ASSERT_TRUE(wd);
  EXPECT_EQ(solution.r, *wd);
  const std::vector<std::int64_t> candidates = testing::wd_path_delays(graph);
  const auto at =
      std::lower_bound(candidates.begin(), candidates.end(), solution.period);
  ASSERT_NE(at, candidates.end());
  ASSERT_EQ(*at, solution.period);
  if (at != candidates.begin()) {
    EXPECT_FALSE(bounded_feasible(graph, *(at - 1)))
        << "W/D accepts " << *(at - 1) << " below the FEAS optimum "
        << solution.period;
  }
}

TEST(FeasDifferentialTest, HandGraphAllCandidates) {
  const RetimeGraph g = hand_graph();
  for (std::int64_t phi = 1; phi <= 20; ++phi) {
    expect_probe_agreement(g, phi);
  }
}

TEST(FeasDifferentialTest, WorkloadGraphsAgreeOnEveryCandidate) {
  for (const CircuitProfile& profile : workload_profiles()) {
    SCOPED_TRACE(profile.name);
    const RetimeGraph bounded = bounded_lowered_graph(profile);
    for (const RetimeGraph& graph : {bounded, bounded.without_bounds()}) {
      const std::vector<std::int64_t> candidates =
          testing::wd_path_delays(graph);
      // Every distinct path delay, feasible and infeasible alike
      // (decimated to keep the suite fast on the big circuits).
      const std::size_t stride =
          candidates.size() > 64 ? candidates.size() / 64 : 1;
      for (std::size_t i = 0; i < candidates.size(); i += stride) {
        expect_probe_agreement(graph, candidates[i]);
      }
    }
  }
}

TEST(FeasDifferentialTest, RandomBoundsAgreeOnEveryPeriod) {
  // Every period from 1 to past the current period, on random graphs with
  // random bounds, some excluding 0 and some empty, and the min-period
  // search on the same graphs. The counts keep the test from passing on
  // rejections alone.
  std::size_t accepted = 0;
  std::size_t accepted_without_zero = 0;
  std::size_t rejected = 0;
  std::size_t above_current = 0;  // minperiod optimum above the period
  std::size_t no_period = 0;      // no legal labeling at any period
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RetimeGraph g = random_graph(rng, 4 + rng.below(9));
    set_random_bounds(rng, g);
    const bool zero_legal =
        g.check_legal(std::vector<std::int64_t>(g.vertex_count(), 0))
            .empty();
    for (std::int64_t phi = 1; phi <= g.period() + 2; ++phi) {
      if (expect_probe_agreement(g, phi)) {
        ++accepted;
        if (!zero_legal) ++accepted_without_zero;
      } else {
        ++rejected;
      }
    }
    // minperiod_retime against the W/D scan over every path delay: the
    // smallest accepted one with its labels, or infeasible when none is.
    const RetimeSolution solution = minperiod_retime(g);
    const std::optional<std::int64_t> want = testing::wd_min_period(g);
    ASSERT_EQ(solution.feasible, want.has_value());
    if (!want) {
      ++no_period;
      continue;
    }
    EXPECT_EQ(solution.period, *want);
    EXPECT_EQ(solution.r, *bounded_feasible(g, *want));
    if (*want > g.period()) ++above_current;
  }
  EXPECT_GT(accepted, 300u);
  EXPECT_GT(accepted_without_zero, 100u);
  EXPECT_GT(rejected, 300u);
  EXPECT_GT(above_current, 10u);
  EXPECT_GT(no_period, 10u);
}

TEST(FeasDifferentialTest, WorkloadGraphsAgreeUnderBoundsExcludingZero) {
  // Lowered graphs whose bounds a relocation retry would tighten past the
  // current labels: every tenth vertex must move by one register.
  for (const CircuitProfile& profile : random_suite(3, 17)) {
    SCOPED_TRACE(profile.name);
    RetimeGraph graph = bounded_lowered_graph(profile);
    Rng rng(profile.seed);
    for (std::uint32_t v = 1; v < graph.vertex_count(); v += 10) {
      const std::int64_t r = rng.below(2) == 0 ? -1 : 1;
      graph.set_bounds(VertexId{v}, r, r);
    }
    const std::vector<std::int64_t> candidates = testing::wd_path_delays(graph);
    const std::size_t stride =
        candidates.size() > 24 ? candidates.size() / 24 : 1;
    for (std::size_t i = 0; i < candidates.size(); i += stride) {
      expect_probe_agreement(graph, candidates[i]);
    }
  }
}

TEST(FeasDifferentialTest, MinperiodIsSmallestWdFeasibleCandidate) {
  // The hand graph's optimum is 7, the delay of v7 alone: the loop's three
  // registers split it into {v7}, {a3}, {b3, c3}. The W/D check must
  // refuse 6, the candidate one below.
  const RetimeGraph g = hand_graph();
  EXPECT_EQ(minperiod_retime(g).period, 7);
  EXPECT_FALSE(bounded_feasible(g, 6));
  expect_minperiod_is_wd_optimum(g);
  for (const CircuitProfile& profile : random_suite(6, 123)) {
    SCOPED_TRACE(profile.name);
    expect_minperiod_is_wd_optimum(lowered_graph(profile));
    expect_minperiod_is_wd_optimum(bounded_lowered_graph(profile));
  }
}

TEST(FeasDifferentialTest, InfeasiblePeriodRejectedByBoth) {
  const RetimeGraph graph = lowered_graph(random_suite(1, 5).front());
  // A period below the largest single-vertex delay is never feasible.
  expect_probe_agreement(graph, 1);
  EXPECT_FALSE(feas_check(graph, 1));
}

}  // namespace
}  // namespace mcrt
