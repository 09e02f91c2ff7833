#include "flow/mincost_flow.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "base/rng.h"

namespace mcrt {
namespace {

TEST(MinCostFlowTest, SimpleTransshipment) {
  // 1 unit from node 0 to node 2 via cheaper of two routes.
  MinCostFlow flow(3);
  flow.set_demand(0, -1);
  flow.set_demand(2, 1);
  flow.add_arc(0, 1, MinCostFlow::kInfinite, 1);
  flow.add_arc(1, 2, MinCostFlow::kInfinite, 1);
  flow.add_arc(0, 2, MinCostFlow::kInfinite, 5);
  const auto solution = flow.solve();
  ASSERT_TRUE(solution);
  EXPECT_EQ(solution->total_cost, 2);
}

TEST(MinCostFlowTest, CapacityForcesExpensiveRoute) {
  MinCostFlow flow(3);
  flow.set_demand(0, -2);
  flow.set_demand(2, 2);
  flow.add_arc(0, 1, 1, 1);
  flow.add_arc(1, 2, 1, 1);
  flow.add_arc(0, 2, MinCostFlow::kInfinite, 5);
  const auto solution = flow.solve();
  ASSERT_TRUE(solution);
  EXPECT_EQ(solution->total_cost, 2 + 5);
}

TEST(MinCostFlowTest, InfeasibleWhenDemandUnreachable) {
  MinCostFlow flow(3);
  flow.set_demand(0, -1);
  flow.set_demand(2, 1);
  flow.add_arc(0, 1, MinCostFlow::kInfinite, 1);  // no way to reach 2
  EXPECT_FALSE(flow.solve());
}

TEST(MinCostFlowTest, ImbalancedDemandsRejected) {
  MinCostFlow flow(2);
  flow.set_demand(0, -2);
  flow.set_demand(1, 1);
  flow.add_arc(0, 1, MinCostFlow::kInfinite, 0);
  EXPECT_FALSE(flow.solve());
}

TEST(MinCostFlowTest, NegativeCostArcsHandled) {
  MinCostFlow flow(3);
  flow.set_demand(0, -1);
  flow.set_demand(2, 1);
  flow.add_arc(0, 1, MinCostFlow::kInfinite, -2);
  flow.add_arc(1, 2, MinCostFlow::kInfinite, 1);
  const auto solution = flow.solve();
  ASSERT_TRUE(solution);
  EXPECT_EQ(solution->total_cost, -1);
}

TEST(MinCostFlowTest, NegativeInfiniteCycleRejected) {
  MinCostFlow flow(2);
  flow.add_arc(0, 1, MinCostFlow::kInfinite, -1);
  flow.add_arc(1, 0, MinCostFlow::kInfinite, -1);
  EXPECT_FALSE(flow.solve());
}

TEST(MinCostFlowTest, PotentialsSatisfyReducedCosts) {
  // For every arc with residual capacity at optimum:
  // pi(to) <= pi(from) + cost  (these are the dual feasibility conditions
  // the retiming labels rely on).
  MinCostFlow flow(4);
  flow.set_demand(0, -2);
  flow.set_demand(3, 2);
  struct ArcSpec {
    std::uint32_t from, to;
    std::int64_t cost;
  };
  const std::vector<ArcSpec> arcs = {
      {0, 1, 2}, {1, 3, 2}, {0, 2, 1}, {2, 3, 4}, {1, 2, 0}};
  for (const auto& a : arcs) {
    flow.add_arc(a.from, a.to, MinCostFlow::kInfinite, a.cost);
  }
  const auto solution = flow.solve();
  ASSERT_TRUE(solution);
  for (const auto& a : arcs) {
    EXPECT_LE(solution->potential[a.to],
              solution->potential[a.from] + a.cost);
  }
}

TEST(MinCostFlowTest, ZeroDemandTrivial) {
  MinCostFlow flow(2);
  flow.add_arc(0, 1, MinCostFlow::kInfinite, 3);
  const auto solution = flow.solve();
  ASSERT_TRUE(solution);
  EXPECT_EQ(solution->total_cost, 0);
}

TEST(MinCostFlowTest, ArcFlowReported) {
  // arc_flow is indexed by the ordinal add_arc returns.
  MinCostFlow flow(3);
  flow.set_demand(0, -3);
  flow.set_demand(2, 3);
  const auto direct = flow.add_arc(0, 2, 1, 1);
  const auto first = flow.add_arc(0, 1, MinCostFlow::kInfinite, 1);
  const auto second = flow.add_arc(1, 2, MinCostFlow::kInfinite, 1);
  EXPECT_EQ(direct, 0u);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 2u);
  const auto solution = flow.solve();
  ASSERT_TRUE(solution);
  ASSERT_EQ(solution->arc_flow.size(), 3u);
  EXPECT_EQ(solution->arc_flow[direct], 1);
  EXPECT_EQ(solution->arc_flow[first], 2);
  EXPECT_EQ(solution->arc_flow[second], 2);
}

TEST(MinCostFlowTest, SolveTwiceSameAnswer) {
  // solve() keeps its residual network to itself: a second call sees the
  // network as built, not the first call's leftovers.
  MinCostFlow flow(4);
  flow.set_demand(0, -3);
  flow.set_demand(3, 3);
  flow.add_arc(0, 1, 2, -1);
  flow.add_arc(1, 3, MinCostFlow::kInfinite, 2);
  flow.add_arc(0, 2, MinCostFlow::kInfinite, 1);
  flow.add_arc(2, 3, 2, 3);
  flow.add_arc(1, 2, 1, 0);
  const auto once = flow.solve();
  const auto twice = flow.solve();
  ASSERT_TRUE(once);
  ASSERT_TRUE(twice);
  EXPECT_EQ(once->total_cost, 2 * 1 + 1 * 4);
  EXPECT_EQ(twice->total_cost, once->total_cost);
  EXPECT_EQ(twice->potential, once->potential);
  EXPECT_EQ(twice->arc_flow, once->arc_flow);
  EXPECT_EQ(twice->phases, once->phases);
  EXPECT_EQ(twice->augmentations, once->augmentations);
}

/// k unit supplies feed one zero-cost chain of `length` arcs that fans out
/// to k unit demands: the shape of a min-area instance, where thousands of
/// units travel at the same distance.
MinCostFlow fan_chain_instance(std::uint32_t k, std::uint32_t length) {
  // Nodes: sources [0, k), chain [k, k + length], demands after that.
  const std::uint32_t chain = k;
  const std::uint32_t demands = k + length + 1;
  MinCostFlow flow(demands + k);
  for (std::uint32_t i = 0; i < k; ++i) {
    flow.set_demand(i, -1);
    flow.set_demand(demands + i, 1);
    flow.add_arc(i, chain, MinCostFlow::kInfinite, 0);
    flow.add_arc(chain + length, demands + i, MinCostFlow::kInfinite, 0);
  }
  for (std::uint32_t j = 0; j < length; ++j) {
    flow.add_arc(chain + j, chain + j + 1, MinCostFlow::kInfinite, 0);
  }
  return flow;
}

TEST(MinCostFlowTest, EqualDistanceUnitsRouteInOnePhase) {
  // One Dijkstra, then blocking flows carry every unit: one phase, not k.
  const std::uint32_t k = 40;
  const MinCostFlow flow = fan_chain_instance(k, 25);
  const auto solution = flow.solve();
  ASSERT_TRUE(solution);
  EXPECT_EQ(solution->total_cost, 0);
  EXPECT_EQ(solution->phases, 1u);
  EXPECT_EQ(solution->augmentations, k);
}

TEST(MinCostFlowTest, PhasesCountDistinctPathCosts) {
  // Three parallel routes of cost 1, 2 and 3 with capacities 2, 3 and 4:
  // each distance is one phase however many units it carries.
  MinCostFlow flow(2);
  flow.set_demand(0, -9);
  flow.set_demand(1, 9);
  flow.add_arc(0, 1, 2, 1);
  flow.add_arc(0, 1, 3, 2);
  flow.add_arc(0, 1, 4, 3);
  const auto solution = flow.solve();
  ASSERT_TRUE(solution);
  EXPECT_EQ(solution->total_cost, 2 * 1 + 3 * 2 + 4 * 3);
  EXPECT_EQ(solution->phases, 3u);
}

TEST(MinCostFlowTest, PreCancelledTokenThrows) {
  CancelToken token;
  token.request_cancel();
  MinCostFlow flow = fan_chain_instance(4, 4);
  flow.set_cancel(&token);
  EXPECT_THROW((void)flow.solve(), CancelledError);
}

TEST(MinCostFlowTest, DeadlineStopsALongBlockingFlow) {
  // One phase whose blocking flow walks the whole chain once per unit:
  // about k * length steps, far longer than the deadline. Setup finishes
  // well before it, so only polls inside the blocking flow can stop the
  // solve in time; without them it would return a solution.
  MinCostFlow flow = fan_chain_instance(12000, 12000);
  CancelToken token;
  flow.set_cancel(&token);
  token.set_timeout(0.05);
  EXPECT_THROW((void)flow.solve(), CancelledError);
}

/// One random transshipment instance. Costs are a nonnegative base plus a
/// potential difference, so arcs may be negative without negative cycles,
/// except in the instances drawn with raw costs, which may have them.
struct Instance {
  struct Arc {
    std::uint32_t from, to;
    std::int64_t cap, cost;
  };
  std::size_t nodes = 0;
  std::vector<Arc> arcs;
  std::vector<std::int64_t> demand;
};

Instance random_instance(std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  inst.nodes = 2 + rng.below(9);
  inst.demand.assign(inst.nodes, 0);
  const bool raw_costs = rng.chance(0.15);
  std::vector<std::int64_t> p(inst.nodes);
  for (auto& value : p) value = rng.range(-4, 4);
  const std::size_t arc_count = rng.below(3 * inst.nodes + 1);
  for (std::size_t i = 0; i < arc_count; ++i) {
    const auto from = static_cast<std::uint32_t>(rng.below(inst.nodes));
    const auto to = static_cast<std::uint32_t>(rng.below(inst.nodes));
    const std::int64_t cap =
        rng.chance(0.5) ? MinCostFlow::kInfinite : rng.range(0, 4);
    const std::int64_t cost =
        raw_costs ? rng.range(-3, 6) : rng.range(0, 5) + p[from] - p[to];
    inst.arcs.push_back({from, to, cap, cost});
  }
  const std::size_t transfers = rng.below(5);
  for (std::size_t i = 0; i < transfers; ++i) {
    const std::int64_t amount = rng.range(1, 3);
    inst.demand[rng.below(inst.nodes)] -= amount;
    inst.demand[rng.below(inst.nodes)] += amount;
  }
  if (rng.chance(0.05)) inst.demand[rng.below(inst.nodes)] += 1;  // imbalanced
  return inst;
}

/// Textbook reference: successive shortest paths, one plain Bellman-Ford
/// per augmentation on the residual network, no potentials. Returns the
/// minimum cost, or nullopt if the demands are imbalanced or unreachable
/// or a negative cycle of positive-capacity arcs exists.
std::optional<std::int64_t> reference_min_cost(const Instance& inst) {
  const std::size_t n = inst.nodes;
  const std::size_t s = n;
  const std::size_t t = n + 1;
  struct Residual {
    std::size_t from, to;
    std::int64_t cap, cost;
  };
  std::vector<Residual> res;  // arc 2i forward, 2i + 1 reverse
  const auto add = [&](std::size_t from, std::size_t to, std::int64_t cap,
                       std::int64_t cost) {
    res.push_back({from, to, cap, cost});
    res.push_back({to, from, 0, -cost});
  };
  for (const auto& arc : inst.arcs) add(arc.from, arc.to, arc.cap, arc.cost);
  std::int64_t balance = 0;
  std::int64_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    balance += inst.demand[v];
    if (inst.demand[v] > 0) {
      add(v, t, inst.demand[v], 0);
      total += inst.demand[v];
    } else if (inst.demand[v] < 0) {
      add(s, v, -inst.demand[v], 0);
    }
  }
  if (balance != 0) return std::nullopt;

  // Negative cycle anywhere: Bellman-Ford from all nodes at once, an
  // improvement in round n + 2 proves one.
  constexpr std::int64_t kInf = INT64_MAX / 4;
  std::vector<std::int64_t> dist(n + 2, 0);
  for (std::size_t round = 0; round <= n + 2; ++round) {
    bool changed = false;
    for (const auto& arc : res) {
      if (arc.cap > 0 && dist[arc.from] + arc.cost < dist[arc.to]) {
        dist[arc.to] = dist[arc.from] + arc.cost;
        changed = true;
      }
    }
    if (!changed) break;
    if (round == n + 2) return std::nullopt;
  }

  std::int64_t cost = 0;
  std::vector<std::size_t> parent(n + 2);
  for (std::int64_t routed = 0; routed < total;) {
    std::fill(dist.begin(), dist.end(), kInf);
    dist[s] = 0;
    for (std::size_t round = 0; round + 1 < n + 2; ++round) {
      for (std::size_t a = 0; a < res.size(); ++a) {
        const auto& arc = res[a];
        if (arc.cap > 0 && dist[arc.from] < kInf &&
            dist[arc.from] + arc.cost < dist[arc.to]) {
          dist[arc.to] = dist[arc.from] + arc.cost;
          parent[arc.to] = a;
        }
      }
    }
    if (dist[t] >= kInf) return std::nullopt;
    std::int64_t push = total - routed;
    for (std::size_t v = t; v != s; v = res[parent[v]].from) {
      push = std::min(push, res[parent[v]].cap);
    }
    for (std::size_t v = t; v != s; v = res[parent[v]].from) {
      res[parent[v]].cap -= push;
      res[parent[v] ^ 1].cap += push;
      cost += push * res[parent[v]].cost;
    }
    routed += push;
  }
  return cost;
}

TEST(MinCostFlowTest, RandomInstancesMatchTextbookReference) {
  int feasible = 0;
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Instance inst = random_instance(seed);
    MinCostFlow flow(inst.nodes);
    for (std::uint32_t v = 0; v < inst.nodes; ++v) {
      flow.set_demand(v, inst.demand[v]);
    }
    for (const auto& arc : inst.arcs) {
      flow.add_arc(arc.from, arc.to, arc.cap, arc.cost);
    }
    const auto solution = flow.solve();
    const auto expected = reference_min_cost(inst);
    ASSERT_EQ(solution.has_value(), expected.has_value());
    if (!solution) {
      ++infeasible;
      continue;
    }
    ++feasible;
    ASSERT_EQ(solution->total_cost, *expected);
    ASSERT_EQ(solution->arc_flow.size(), inst.arcs.size());
    const std::vector<std::int64_t>& pi = solution->potential;
    std::vector<std::int64_t> net_inflow(inst.nodes, 0);
    std::int64_t cost = 0;
    for (std::size_t i = 0; i < inst.arcs.size(); ++i) {
      const auto& arc = inst.arcs[i];
      const std::int64_t f = solution->arc_flow[i];
      ASSERT_GE(f, 0);
      ASSERT_LE(f, arc.cap);
      net_inflow[arc.to] += f;
      net_inflow[arc.from] -= f;
      cost += f * arc.cost;
      const std::int64_t reduced = arc.cost + pi[arc.from] - pi[arc.to];
      // Residual forward arc, residual reverse arc, and an arc carrying
      // flow below its capacity (both directions residual).
      if (f < arc.cap) {
        EXPECT_GE(reduced, 0) << "arc " << i;
      }
      if (f > 0) {
        EXPECT_LE(reduced, 0) << "arc " << i;
      }
      if (f > 0 && f < arc.cap) {
        EXPECT_EQ(reduced, 0) << "arc " << i;
      }
    }
    EXPECT_EQ(cost, solution->total_cost);
    EXPECT_EQ(net_inflow, inst.demand);
  }
  // Both outcomes are exercised.
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(infeasible, 300);
}

}  // namespace
}  // namespace mcrt
