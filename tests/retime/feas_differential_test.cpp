// CSR FEAS vs an independent formulation of the same question:
// Leiserson-Saxe's W/D period constraints solved by Bellman-Ford
// (bounded_feasible() on a graph without bounds). FEAS relaxes arrival
// times round by round; the W/D check solves a difference-constraint system
// built from all-pairs path data. The two share nothing beyond the graph, so
// their agreement on every probed period, and on the minimum period, checks
// the formulation rather than one copy of the code against another.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

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
// timing problem is non-degenerate, and without its class bounds: FEAS
// solves the unbounded problem.
RetimeGraph lowered_graph(const CircuitProfile& profile) {
  Netlist circuit = generate_circuit(profile);
  set_default_lut_delays(circuit, 10);
  const McGraph mc = build_mc_graph(circuit);
  const MaximalRetimingResult maximal = compute_mc_bounds(mc);
  return lower_to_retime_graph(mc, maximal.bounds).without_bounds();
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

void expect_probe_agreement(const RetimeGraph& graph, std::int64_t phi) {
  const auto feas = feas_check(graph, phi);
  const auto wd = bounded_feasible(graph, phi);
  ASSERT_EQ(feas.has_value(), wd.has_value()) << "phi=" << phi;
  if (feas) {
    // The graph has no bounds, so legality is w_r >= 0 and r(host) = 0.
    EXPECT_EQ(graph.check_legal(*feas), "") << "phi=" << phi;
    EXPECT_LE(graph.period(*feas), phi) << "phi=" << phi;
  }
}

// minperiod_retime's period must be the smallest candidate the W/D check
// accepts: W/D accepts it and refuses the candidate just below (feasibility
// is monotone in phi).
void expect_minperiod_is_wd_optimum(const RetimeGraph& graph) {
  const RetimeSolution solution = minperiod_retime(graph);
  ASSERT_TRUE(solution.feasible);
  EXPECT_EQ(graph.check_legal(solution.r), "");
  EXPECT_LE(graph.period(solution.r), solution.period);
  EXPECT_TRUE(bounded_feasible(graph, solution.period));
  const std::vector<std::int64_t> candidates = candidate_periods(graph);
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
    const RetimeGraph graph = lowered_graph(profile);
    const std::vector<std::int64_t> candidates = candidate_periods(graph);
    // Every distinct path delay, feasible and infeasible alike (decimated
    // to keep the suite fast on the big circuits).
    const std::size_t stride =
        candidates.size() > 64 ? candidates.size() / 64 : 1;
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
