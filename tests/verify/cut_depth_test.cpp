// The exhaustive cut-depth reference on circuits whose optimal k-LUT depth
// is known by hand. A reference that merely echoed gate depth, or that
// forgot registers are sources and roots, fails here.
#include "verify/cut_depth.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tech/flowmap.h"

namespace mcrt {
namespace {

/// Balanced tree of 2-input ANDs over `leaves`; returns the root net.
NetId and_tree(Netlist& n, std::vector<NetId> leaves) {
  while (leaves.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2) {
      next.push_back(n.add_lut(TruthTable::and_n(2), {leaves[i], leaves[i + 1]}));
    }
    if (leaves.size() % 2 == 1) next.push_back(leaves.back());
    leaves = std::move(next);
  }
  return leaves.front();
}

std::vector<NetId> inputs(Netlist& n, int count, const std::string& prefix) {
  std::vector<NetId> nets;
  for (int i = 0; i < count; ++i) {
    nets.push_back(n.add_input(prefix + std::to_string(i)));
  }
  return nets;
}

Netlist and_tree_circuit(int width) {
  Netlist n;
  n.add_output("y", and_tree(n, inputs(n, width, "x")));
  return n;
}

TEST(CutDepthTest, AndTreeOfEightAtK4HasDepthTwoNotGateDepthThree) {
  const Netlist tree = and_tree_circuit(8);
  EXPECT_EQ(exhaustive_cut_depth(tree, 4), 2u);
  EXPECT_EQ(exhaustive_cut_depth(tree, 2), 3u);  // k=2 LUTs are the gates
  EXPECT_EQ(exhaustive_cut_depth(tree, 3), 3u);  // 4-input subtrees need 2
  EXPECT_EQ(exhaustive_cut_depth(tree, 8), 1u);  // one LUT takes all leaves
  FlowMapOptions options;
  options.k = 4;
  EXPECT_EQ(flowmap_map(tree, options).depth, 2u);
}

TEST(CutDepthTest, AndTreeOfSixteenAtK4HasDepthTwo) {
  EXPECT_EQ(exhaustive_cut_depth(and_tree_circuit(16), 4), 2u);
  EXPECT_EQ(exhaustive_cut_depth(and_tree_circuit(17), 4), 3u);
}

TEST(CutDepthTest, InverterChainCollapsesIntoOneLut) {
  Netlist n;
  NetId net = n.add_input("a");
  for (int i = 0; i < 6; ++i) net = n.add_lut(TruthTable::inverter(), {net});
  n.add_output("y", net);
  EXPECT_EQ(exhaustive_cut_depth(n, 2), 1u);
}

TEST(CutDepthTest, RegistersAreSourcesAndRoots) {
  // A 4-input tree into a register D pin, then Q AND x to the output. Each
  // side fits one 4-LUT; without the register the 5-input cone needs two.
  Netlist n;
  const NetId clk = n.add_input("clk");
  Register ff;
  ff.d = and_tree(n, inputs(n, 4, "a"));
  ff.clk = clk;
  const NetId q = n.add_register(std::move(ff));
  const NetId x = n.add_input("x");
  n.add_output("y", n.add_lut(TruthTable::and_n(2), {q, x}));
  EXPECT_EQ(exhaustive_cut_depth(n, 4), 1u);

  Netlist flat;
  const NetId tree = and_tree(flat, inputs(flat, 4, "a"));
  const NetId y = flat.add_lut(TruthTable::and_n(2), {tree, flat.add_input("x")});
  flat.add_output("y", y);
  EXPECT_EQ(exhaustive_cut_depth(flat, 4), 2u);
}

TEST(CutDepthTest, WiresAndConstantsHaveDepthZero) {
  Netlist n;
  n.add_output("y", n.add_input("a"));
  n.add_output("z", n.add_const(true));
  EXPECT_EQ(exhaustive_cut_depth(n, 4), 0u);
}

TEST(CutDepthTest, GivesUpAboveTheCutCap) {
  // At k=11 the root of a 64-leaf AND tree has thousands of minimal cuts,
  // past the reference's cap; at k=4 the same tree has few and maps to
  // depth 3 (4^3 = 64 leaves).
  const Netlist tree = and_tree_circuit(64);
  EXPECT_EQ(exhaustive_cut_depth(tree, 4), 3u);
  EXPECT_FALSE(exhaustive_cut_depth(tree, 11).has_value());
}

}  // namespace
}  // namespace mcrt
