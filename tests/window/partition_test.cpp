// Partitioner invariants: every movable vertex lands in exactly one
// window, windows respect the size cap, the cut statistics match a
// recount, and the result is deterministic in the seed.
#include "window/partition.h"

#include <gtest/gtest.h>

#include <set>

#include "mcretime/mcgraph.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

bool movable(const McGraph& g, std::uint32_t v) {
  const McVertexKind kind = g.kind(VertexId{v});
  return kind == McVertexKind::kGate || kind == McVertexKind::kSeparator;
}

McGraph test_graph(std::uint64_t seed) {
  RandomCircuitOptions options;
  options.gates = 120;
  options.registers = 24;
  options.feedback_registers = 4;
  return build_mc_graph(random_sequential_circuit(seed, options));
}

TEST(PartitionTest, EveryMovableAssignedExactlyOnce) {
  const McGraph g = test_graph(7);
  PartitionOptions options;
  options.max_window = 32;
  const WindowPartition part = partition_mc_graph(g, options);
  ASSERT_GT(part.window_count(), 1u);

  std::set<std::uint32_t> seen;
  for (std::size_t w = 0; w < part.window_count(); ++w) {
    EXPECT_FALSE(part.windows[w].empty()) << "empty window " << w;
    for (const std::uint32_t v : part.windows[w]) {
      EXPECT_TRUE(movable(g, v));
      EXPECT_EQ(part.window_of[v], w);
      EXPECT_TRUE(seen.insert(v).second) << "vertex " << v << " twice";
    }
  }
  for (std::uint32_t v = 0; v < g.vertex_count(); ++v) {
    if (movable(g, v)) {
      EXPECT_NE(part.window_of[v], WindowPartition::kUnassigned);
    } else {
      EXPECT_EQ(part.window_of[v], WindowPartition::kUnassigned);
    }
  }
}

TEST(PartitionTest, RespectsSizeCap) {
  const McGraph g = test_graph(11);
  PartitionOptions options;
  options.max_window = 24;
  const WindowPartition part = partition_mc_graph(g, options);
  for (std::size_t w = 0; w < part.window_count(); ++w) {
    EXPECT_LE(part.windows[w].size(), options.max_window);
  }
}

TEST(PartitionTest, CutStatisticsMatchRecount) {
  const McGraph g = test_graph(13);
  PartitionOptions options;
  options.max_window = 32;
  const WindowPartition part = partition_mc_graph(g, options);

  // A cut edge joins two *different assigned* windows; edges touching
  // pinned vertices (inputs, outputs, host) move no registers and are not
  // part of the cut.
  std::size_t cut_edges = 0;
  std::size_t cut_registers = 0;
  const Digraph& dg = g.digraph();
  for (std::size_t e = 0; e < dg.edge_count(); ++e) {
    const EdgeId eid{static_cast<std::uint32_t>(e)};
    const std::uint32_t a = part.window_of[dg.from(eid).index()];
    const std::uint32_t b = part.window_of[dg.to(eid).index()];
    if (a != b && a != WindowPartition::kUnassigned &&
        b != WindowPartition::kUnassigned) {
      ++cut_edges;
      cut_registers += g.regs(eid).size();
    }
  }
  EXPECT_EQ(part.cut_edges, cut_edges);
  EXPECT_EQ(part.cut_registers, cut_registers);
}

TEST(PartitionTest, DeterministicInSeed) {
  const McGraph g = test_graph(17);
  PartitionOptions options;
  options.max_window = 32;
  options.seed = 5;
  const WindowPartition a = partition_mc_graph(g, options);
  const WindowPartition b = partition_mc_graph(g, options);
  EXPECT_EQ(a.window_of, b.window_of);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
}

}  // namespace
}  // namespace mcrt
