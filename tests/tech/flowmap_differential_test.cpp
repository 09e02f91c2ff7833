// FlowMap vs exhaustive k-cut enumeration (verify/cut_depth.h). FlowMap
// finds each label with one flow search over the node's cone; the reference
// enumerates every k-feasible cut and takes the minimum of (deepest leaf
// label + 1), which is the definition those labels optimise. The mapped
// depth must match on every circuit, for both LUT sizes and with area
// recovery on or off (recovery may change the cover, never the depth).
//
// Per net, the label and cut must also equal the ones the explicit
// node-split network gives when solved by the reference Dinic
// (tests/common/maxflow_reference.h): the source side of its minimum cut.
#include "tech/flowmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "../common/maxflow_reference.h"
#include "../common/test_circuits.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "verify/cut_depth.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

void expect_optimal_depth(const Netlist& subject, std::uint32_t k,
                          bool area_recovery) {
  FlowMapOptions options;
  options.k = k;
  options.area_recovery = area_recovery;
  const FlowMapResult mapped = flowmap_map(subject, options);
  const auto reference = exhaustive_cut_depth(subject, k);
  ASSERT_TRUE(reference.has_value()) << "k=" << k << ": cut cap exceeded";
  EXPECT_EQ(mapped.depth, *reference)
      << "k=" << k << " area_recovery=" << area_recovery;
}

void expect_optimal_depth_all_settings(const Netlist& subject) {
  for (const std::uint32_t k : {4u, 5u}) {
    for (const bool recovery : {false, true}) {
      expect_optimal_depth(subject, k, recovery);
    }
  }
}

TEST(FlowMapDifferentialTest, HandCircuits) {
  expect_optimal_depth_all_settings(
      decompose_to_binary(testing::fig1_circuit()));
  expect_optimal_depth_all_settings(
      decompose_to_binary(testing::chain_circuit(9, 3)));
  const Netlist fig5 = decompose_to_binary(testing::fig5_circuit());
  expect_optimal_depth_all_settings(fig5);
  for (const bool recovery : {false, true}) {
    expect_optimal_depth(fig5, 3, recovery);
  }
}

TEST(FlowMapDifferentialTest, RandomCircuitsBothKAndRecovery) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    expect_optimal_depth_all_settings(
        decompose_to_binary(random_sequential_circuit(seed)));
  }
}

TEST(FlowMapDifferentialTest, WorkloadCircuits) {
  for (const CircuitProfile& profile : random_suite(6, 17)) {
    SCOPED_TRACE(profile.name);
    expect_optimal_depth_all_settings(
        decompose_to_binary(generate_circuit(profile)));
  }
}

/// The LUT driving `net`, or nullptr for a mapping source (PI, register
/// output, constant).
const Node* driving_lut(const Netlist& subject, std::uint32_t net) {
  const NetDriver driver = subject.net(NetId{net}).driver;
  if (driver.kind != NetDriver::Kind::kNode) return nullptr;
  const Node& node = subject.node(NodeId{driver.index});
  if (node.kind != NodeKind::kLut || node.fanins.empty()) return nullptr;
  return &node;
}

std::vector<std::uint32_t> sorted_fanins(const Node& node) {
  std::vector<std::uint32_t> nets;
  for (const NetId f : node.fanins) nets.push_back(f.value());
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

struct ReferenceLabel {
  std::uint32_t label;
  std::vector<std::uint32_t> cut;  ///< ascending
};

/// FlowMap's label step for `target` from its definition, given the labels
/// of its fanin cone: collapse the target and every cone net of label p
/// (the largest fanin label) into the sink, split every other net into a
/// unit arc in -> out, and ask the reference Dinic for more than k units.
/// At most k, the label is p and the cut is the minimum cut on the source
/// side of the final residual network; otherwise p + 1 and the fanins.
ReferenceLabel reference_label(const Netlist& subject,
                               const std::vector<std::uint32_t>& label,
                               std::uint32_t target, std::uint32_t k) {
  const Node& root = *driving_lut(subject, target);
  std::uint32_t p = 0;
  for (const NetId f : root.fanins) p = std::max(p, label[f.value()]);
  if (p == 0) return {1, sorted_fanins(root)};

  std::vector<std::uint32_t> cone{target};
  std::set<std::uint32_t> in_cone{target};
  for (std::size_t i = 0; i < cone.size(); ++i) {
    for (const NetId f : driving_lut(subject, cone[i])->fanins) {
      if (driving_lut(subject, f.value()) == nullptr) continue;
      if (in_cone.insert(f.value()).second) cone.push_back(f.value());
    }
  }
  auto cluster = [&](std::uint32_t n) {
    return n == target || (in_cone.count(n) != 0 && label[n] == p);
  };
  // Flow nodes: 0 source, 1 sink, then in = 2 + 2i and out = 3 + 2i for
  // the i-th cuttable net.
  std::map<std::uint32_t, std::uint32_t> in_node;
  auto split = [&](std::uint32_t n) {
    in_node.emplace(n, 2 + 2 * static_cast<std::uint32_t>(in_node.size()));
  };
  for (const std::uint32_t n : cone) {
    if (!cluster(n)) split(n);
    for (const NetId f : driving_lut(subject, n)->fanins) {
      if (driving_lut(subject, f.value()) == nullptr) split(f.value());
    }
  }
  constexpr std::int64_t kInf = 1 << 20;
  testing::MaxFlow flow(2 + 2 * in_node.size());
  for (const auto& [net, in] : in_node) {
    flow.add_arc(in, in + 1, 1);
    if (driving_lut(subject, net) == nullptr) flow.add_arc(0, in, kInf);
  }
  for (const std::uint32_t n : cone) {
    const std::uint32_t head = cluster(n) ? 1 : in_node.at(n);
    for (const NetId f : driving_lut(subject, n)->fanins) {
      const std::uint32_t tail =
          cluster(f.value()) ? 1 : in_node.at(f.value()) + 1;
      if (tail != head) flow.add_arc(tail, head, kInf);
    }
  }
  if (flow.solve(0, 1, std::int64_t{k} + 1) > k) {
    return {p + 1, sorted_fanins(root)};
  }
  ReferenceLabel result{p, {}};
  for (const auto& [net, in] : in_node) {  // ascending net ids
    if (flow.source_side(in) && !flow.source_side(in + 1)) {
      result.cut.push_back(net);
    }
  }
  return result;
}

void expect_cuts_match_reference(const Netlist& subject) {
  for (const std::uint32_t k : {3u, 4u, 5u}) {
    SCOPED_TRACE(k);
    FlowMapOptions options;
    options.k = k;
    const FlowMapLabels labels = flowmap_label(subject, options);
    for (std::uint32_t net = 0; net < subject.net_count(); ++net) {
      if (driving_lut(subject, net) == nullptr) continue;
      const ReferenceLabel expected =
          reference_label(subject, labels.label, net, k);
      std::vector<std::uint32_t> cut(labels.cut(net).begin(),
                                     labels.cut(net).end());
      std::sort(cut.begin(), cut.end());
      EXPECT_EQ(labels.label[net], expected.label) << "net " << net;
      EXPECT_EQ(cut, expected.cut) << "net " << net;
      EXPECT_LE(cut.size(), k) << "net " << net;
    }
  }
}

TEST(FlowMapDifferentialTest, CutsMatchDinicReference) {
  expect_cuts_match_reference(decompose_to_binary(testing::fig1_circuit()));
  expect_cuts_match_reference(
      decompose_to_binary(testing::chain_circuit(9, 3)));
  expect_cuts_match_reference(decompose_to_binary(testing::fig5_circuit()));
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    expect_cuts_match_reference(
        decompose_to_binary(random_sequential_circuit(seed)));
  }
  for (const CircuitProfile& profile : random_suite(6, 17)) {
    SCOPED_TRACE(profile.name);
    expect_cuts_match_reference(
        decompose_to_binary(generate_circuit(profile)));
  }
}

TEST(FlowMapDifferentialTest, CompactEngineStillBehaviorallyCorrect) {
  // Depth optimality says nothing about function: the mapped netlist must
  // also be sequentially equivalent to its input.
  const Netlist subject =
      decompose_to_binary(random_sequential_circuit(77));
  FlowMapOptions opt;
  opt.k = 4;
  const FlowMapResult mapped = flowmap_map(subject, opt);
  EquivalenceOptions eq;
  eq.init_registers_by_name = true;
  eq.runs = 4;
  eq.cycles = 32;
  const EquivalenceResult verdict =
      check_sequential_equivalence(subject, mapped.mapped, eq);
  EXPECT_TRUE(verdict.equivalent) << verdict.counterexample;
}

}  // namespace
}  // namespace mcrt
