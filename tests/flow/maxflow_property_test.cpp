// Property: the reference max-flow equals min-cut on random small
// networks, checked against exhaustive cut enumeration, and the reported
// source side is a valid minimum cut.
#include <gtest/gtest.h>

#include "../common/maxflow_reference.h"
#include "base/rng.h"

namespace mcrt {
namespace {

using testing::MaxFlow;

struct Network {
  std::size_t nodes;
  struct Arc {
    std::uint32_t from, to;
    std::int64_t cap;
  };
  std::vector<Arc> arcs;
};

Network random_network(std::uint64_t seed) {
  Rng rng(seed);
  Network net;
  net.nodes = 6 + rng.below(3);  // 6..8 nodes; source 0, sink 1
  const std::size_t arc_count = 10 + rng.below(8);
  for (std::size_t i = 0; i < arc_count; ++i) {
    const auto from = static_cast<std::uint32_t>(rng.below(net.nodes));
    const auto to = static_cast<std::uint32_t>(rng.below(net.nodes));
    if (from == to) continue;
    net.arcs.push_back({from, to, 1 + static_cast<std::int64_t>(rng.below(9))});
  }
  return net;
}

/// Minimum s-t cut by enumerating all 2^(n-2) side assignments.
std::int64_t brute_force_min_cut(const Network& net) {
  std::int64_t best = INT64_MAX;
  const std::size_t free_nodes = net.nodes - 2;  // nodes 2..n-1
  for (std::uint32_t mask = 0; mask < (1u << free_nodes); ++mask) {
    auto side = [&](std::uint32_t v) {
      if (v == 0) return true;   // source side
      if (v == 1) return false;  // sink side
      return static_cast<bool>((mask >> (v - 2)) & 1);
    };
    std::int64_t cut = 0;
    for (const auto& arc : net.arcs) {
      if (side(arc.from) && !side(arc.to)) cut += arc.cap;
    }
    best = std::min(best, cut);
  }
  return best;
}

class MaxFlowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxFlowProperty, MaxFlowEqualsBruteForceMinCut) {
  const Network net = random_network(GetParam());
  MaxFlow flow(net.nodes);
  for (const auto& arc : net.arcs) flow.add_arc(arc.from, arc.to, arc.cap);
  const std::int64_t value = flow.solve(0, 1);
  EXPECT_EQ(value, brute_force_min_cut(net)) << "seed " << GetParam();
  // The residual source side defines a cut of exactly `value`.
  std::int64_t cut = 0;
  for (std::size_t a = 0; a < net.arcs.size(); ++a) {
    if (flow.source_side(net.arcs[a].from) &&
        !flow.source_side(net.arcs[a].to)) {
      cut += net.arcs[a].cap;
    }
  }
  EXPECT_EQ(cut, value) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, MaxFlowProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace mcrt
