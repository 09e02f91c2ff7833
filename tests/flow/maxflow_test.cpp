// Unit tests of the reference Dinic max-flow (tests/common).
#include "../common/maxflow_reference.h"

#include <gtest/gtest.h>

namespace mcrt {
namespace {

using testing::MaxFlow;

TEST(MaxFlowTest, SingleArc) {
  MaxFlow flow(2);
  flow.add_arc(0, 1, 5);
  EXPECT_EQ(flow.solve(0, 1), 5);
}

TEST(MaxFlowTest, ClassicNetwork) {
  // CLRS-style example.
  MaxFlow flow(6);
  flow.add_arc(0, 1, 16);
  flow.add_arc(0, 2, 13);
  flow.add_arc(1, 2, 10);
  flow.add_arc(2, 1, 4);
  flow.add_arc(1, 3, 12);
  flow.add_arc(3, 2, 9);
  flow.add_arc(2, 4, 14);
  flow.add_arc(4, 3, 7);
  flow.add_arc(3, 5, 20);
  flow.add_arc(4, 5, 4);
  EXPECT_EQ(flow.solve(0, 5), 23);
}

TEST(MaxFlowTest, DisconnectedIsZero) {
  MaxFlow flow(3);
  flow.add_arc(0, 1, 4);
  EXPECT_EQ(flow.solve(0, 2), 0);
}

TEST(MaxFlowTest, LimitCapsFlow) {
  MaxFlow flow(2);
  flow.add_arc(0, 1, 100);
  EXPECT_EQ(flow.solve(0, 1, 7), 7);
}

TEST(MaxFlowTest, MinCutSides) {
  // 0 -> 1 -> 2 with bottleneck at 1->2.
  MaxFlow flow(3);
  flow.add_arc(0, 1, 10);
  const std::size_t bottleneck = flow.add_arc(1, 2, 3);
  EXPECT_EQ(flow.solve(0, 2), 3);
  EXPECT_TRUE(flow.source_side(0));
  EXPECT_TRUE(flow.source_side(1));
  EXPECT_FALSE(flow.source_side(2));
  EXPECT_EQ(flow.flow_on(bottleneck), 3);
}

TEST(MaxFlowTest, UnitCapacityNodeSplit) {
  // k-feasibility style check: 4 parallel unit paths -> flow 4, limit 3
  // reports >= 3 quickly.
  MaxFlow flow(10);
  for (std::uint32_t i = 0; i < 4; ++i) {
    flow.add_arc(0, 2 + i, 1);
    flow.add_arc(2 + i, 1, 1);
  }
  EXPECT_EQ(flow.solve(0, 1, 3), 3);
}

TEST(MaxFlowTest, FlowConservation) {
  MaxFlow flow(4);
  const auto a = flow.add_arc(0, 1, 2);
  const auto b = flow.add_arc(0, 2, 2);
  const auto c = flow.add_arc(1, 3, 3);
  const auto d = flow.add_arc(2, 3, 1);
  EXPECT_EQ(flow.solve(0, 3), 3);
  EXPECT_EQ(flow.flow_on(a) + flow.flow_on(b), 3);
  EXPECT_EQ(flow.flow_on(c) + flow.flow_on(d), 3);
  EXPECT_LE(flow.flow_on(d), 1);
}

}  // namespace
}  // namespace mcrt
