#include "tech/flowmap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "../common/fnv1a.h"
#include "../common/test_circuits.h"
#include "blif/blif.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/sta.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

FlowMapResult map4(const Netlist& n) {
  FlowMapOptions opt;
  opt.k = 4;
  return flowmap_map(decompose_to_binary(n), opt);
}

TEST(FlowMapTest, LutFaninsBounded) {
  const Netlist n = random_sequential_circuit(11);
  const auto result = map4(n);
  for (const Node& node : result.mapped.nodes()) {
    if (node.kind == NodeKind::kLut) {
      EXPECT_LE(node.fanins.size(), 4u);
    }
  }
  EXPECT_TRUE(result.mapped.validate().empty());
}

TEST(FlowMapTest, PreservesBehaviour) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist n = random_sequential_circuit(seed);
    const auto result = map4(n);
    EquivalenceOptions opt;
    opt.runs = 3;
    opt.cycles = 32;
    opt.init_registers_by_name = true;
    const auto eq = check_sequential_equivalence(n, result.mapped, opt);
    EXPECT_TRUE(eq.equivalent)
        << "seed " << seed << ": " << eq.counterexample;
  }
}

TEST(FlowMapTest, ChainPacksIntoFewLuts) {
  // 8 inverters in a row fit into two 4-LUTs (depth 2); FlowMap must not
  // leave them as 8 levels.
  const Netlist n = testing::chain_circuit(8, 1);
  const auto result = map4(n);
  EXPECT_LE(result.depth, 2u);
  EXPECT_LE(result.lut_count, 2u);
}

TEST(FlowMapTest, DepthIsOptimalForBalancedTree) {
  // A 16-input AND tree: 4-LUT depth 2 is optimal.
  Netlist n;
  std::vector<NetId> layer;
  for (int i = 0; i < 16; ++i) {
    layer.push_back(n.add_input("i" + std::to_string(i)));
  }
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(n.add_lut(TruthTable::and_n(2), {layer[i], layer[i + 1]}));
    }
    layer = std::move(next);
  }
  n.add_output("o", layer[0]);
  const auto result = flowmap_map(n, {});
  EXPECT_EQ(result.depth, 2u);
}

TEST(FlowMapTest, AssignsLutDelays) {
  const Netlist n = testing::chain_circuit(8, 1);
  FlowMapOptions opt;
  opt.lut_delay = 10;
  const auto result = flowmap_map(decompose_to_binary(n), opt);
  const std::int64_t period = compute_period(result.mapped);
  EXPECT_EQ(period, static_cast<std::int64_t>(result.depth) * 10);
}

TEST(FlowMapTest, RegistersAndControlsSurvive) {
  const Netlist n = testing::fig1_circuit();
  const auto result = map4(n);
  EXPECT_EQ(result.mapped.register_count(), 2u);
  EXPECT_EQ(result.mapped.stats().with_en, 2u);
}

TEST(FlowMapTest, ControlConesAreMapped) {
  // An enable computed by logic must itself be covered by LUTs.
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId d = n.add_input("d");
  const NetId en = n.add_lut(TruthTable::or_n(2), {a, b}, "en");
  Register ff;
  ff.d = d;
  ff.clk = clk;
  ff.en = en;
  const NetId q = n.add_register(std::move(ff));
  n.add_output("q", q);
  const auto result = map4(n);
  EXPECT_GE(result.lut_count, 1u);
  ASSERT_EQ(result.mapped.register_count(), 1u);
  EXPECT_TRUE(result.mapped.reg(RegId{0}).en.valid());
}

TEST(FlowMapTest, AreaRecoveryPreservesDepthAndBehaviour) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist n = decompose_to_binary(random_sequential_circuit(seed));
    FlowMapOptions plain;
    FlowMapOptions recover;
    recover.area_recovery = true;
    const auto a = flowmap_map(n, plain);
    const auto b = flowmap_map(n, recover);
    // Depth-optimality is preserved exactly.
    EXPECT_EQ(b.depth, a.depth) << "seed " << seed;
    EquivalenceOptions opt;
    opt.runs = 2;
    opt.cycles = 32;
    opt.init_registers_by_name = true;
    const auto eq = check_sequential_equivalence(n, b.mapped, opt);
    EXPECT_TRUE(eq.equivalent) << "seed " << seed << ": "
                               << eq.counterexample;
  }
}

TEST(FlowMapTest, AreaRecoveryReusesSharedCone) {
  // Diamond: a shared subcone demanded by a deep consumer and tapped by a
  // shallow one. With recovery the shallow root reuses the shared net
  // instead of duplicating its cone.
  Netlist n;
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) {
    ins.push_back(n.add_input("i" + std::to_string(i)));
  }
  // shared = AND tree of all four inputs (depth 2 at k=2 bound).
  const NetId s1 = n.add_lut(TruthTable::and_n(2), {ins[0], ins[1]});
  const NetId s2 = n.add_lut(TruthTable::and_n(2), {ins[2], ins[3]});
  const NetId shared = n.add_lut(TruthTable::and_n(2), {s1, s2});
  // Deep consumer: a few more levels; shallow consumer: one gate on top.
  NetId deep = shared;
  for (int i = 0; i < 6; ++i) {
    deep = n.add_lut(TruthTable::xor_n(2), {deep, ins[i % 4]});
  }
  const NetId shallow = n.add_lut(TruthTable::inverter(), {shared});
  n.add_output("deep", deep);
  n.add_output("shallow", shallow);

  FlowMapOptions plain;
  FlowMapOptions recover;
  recover.area_recovery = true;
  const auto a = flowmap_map(n, plain);
  const auto b = flowmap_map(n, recover);
  EXPECT_EQ(b.depth, a.depth);
  EXPECT_LE(b.lut_count, a.lut_count);
}

TEST(FlowMapTest, RejectsUnboundedSubjectGraph) {
  Netlist n;
  std::vector<NetId> ins;
  for (int i = 0; i < 6; ++i) {
    ins.push_back(n.add_input("i" + std::to_string(i)));
  }
  n.add_output("o", n.add_lut(TruthTable::and_n(6), ins));
  FlowMapOptions opt;
  opt.k = 4;
  EXPECT_THROW(flowmap_map(n, opt), std::invalid_argument);
}

TEST(FlowMapTest, PreCancelledTokenThrows) {
  // Labels poll the token once each, so a stop requested before the call
  // unwinds at the first label.
  CancelToken token;
  token.request_cancel();
  FlowMapOptions opt;
  opt.k = 4;
  opt.cancel = &token;
  EXPECT_THROW(
      flowmap_map(decompose_to_binary(random_sequential_circuit(11)), opt),
      CancelledError);
}

TEST(FlowMapTest, CoversPinnedToParent) {
  // FNV-1a of the mapped BLIF at k = 4, without and with area recovery,
  // recorded before the label search was rewritten: any change to a label,
  // a cut or the realization order shows up here.
  struct Pin {
    const char* name;
    std::uint64_t plain;
    std::uint64_t recovered;
  };
  static constexpr Pin kPins[] = {
      {"C1", 0xe8ac0e980623c87bull, 0xed3c83f233911948ull},
      {"C2", 0x57cb9e1f8aacc155ull, 0x0ecc40428bf7f05aull},
      {"C3", 0x0377cba47e5cb0c4ull, 0x0377cba47e5cb0c4ull},
      {"C4", 0xc0f9f9710ffcadadull, 0x1d88a7470a5b9060ull},
      {"C5", 0xee4fe953d9d086c5ull, 0xee4fe953d9d086c5ull},
      {"C6", 0x1ccc72c0879131cfull, 0x05e84d2fbe4b7df8ull},
      {"C7", 0xabe08309f390a565ull, 0x57be98500ea1e276ull},
      {"C8", 0xa41613c6ca5effcfull, 0xf03fff44fd775cddull},
      {"C9", 0x53702c550d61f013ull, 0x6f4f6c95a4a050a8ull},
      {"C10", 0xef1eb8ed738e82a4ull, 0x15c28e10eb168dd4ull},
      {"s1000", 0xa1d29e6147026525ull, 0x901ce6488a05c040ull},
      {"s2000", 0x0971a79df8e4e8b7ull, 0xfe8634064ecae064ull},
      {"s4000", 0xd4f2400fbe676967ull, 0xaf418461bc51cf85ull},
  };
  std::vector<Netlist> designs;
  for (const CircuitProfile& profile : paper_suite()) {
    designs.push_back(generate_circuit(profile));
  }
  designs.push_back(generate_circuit(scaled_profile(1000, 1)));
  designs.push_back(generate_circuit(scaled_profile(2000, 1)));
  designs.push_back(generate_circuit(scaled_profile(4000, 7)));
  ASSERT_EQ(designs.size(), std::size(kPins));
  for (std::size_t i = 0; i < designs.size(); ++i) {
    SCOPED_TRACE(kPins[i].name);
    const Netlist subject = decompose_to_binary(designs[i]);
    for (const bool recovery : {false, true}) {
      FlowMapOptions opt;
      opt.k = 4;
      opt.area_recovery = recovery;
      const std::uint64_t hash =
          testing::fnv1a64(write_blif_string(flowmap_map(subject, opt).mapped));
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llxull",
                    static_cast<unsigned long long>(hash));
      EXPECT_EQ(hash, recovery ? kPins[i].recovered : kPins[i].plain)
          << "recovery=" << recovery << " got " << hex;
    }
  }
}

TEST(FlowMapWork, LabelSearchesStayWithinTheLut) {
  // A label's searches cost about the size of the LUT it forms, not of the
  // node's fanin cone: their work is bounded by a third of the summed cone
  // sizes, which a search of each whole cone would exceed (it spends 2.6
  // times that sum). Cone: the non-boundary transitive fanin, the net
  // included.
  const Netlist subject =
      decompose_to_binary(generate_circuit(scaled_profile(2000, 1)));
  std::vector<std::uint32_t> driver(subject.net_count(), UINT32_MAX);
  for (std::uint32_t v = 0; v < subject.node_count(); ++v) {
    const Node& node = subject.node(NodeId{v});
    if (node.kind == NodeKind::kLut && !node.fanins.empty()) {
      driver[node.output.index()] = v;
    }
  }
  std::uint64_t cone_sum = 0;
  std::vector<std::uint32_t> mark(subject.net_count(), UINT32_MAX);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t net = 0; net < subject.net_count(); ++net) {
    if (driver[net] == UINT32_MAX) continue;
    mark[net] = net;
    stack.assign(1, net);
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      ++cone_sum;
      for (const NetId f : subject.node(NodeId{driver[u]}).fanins) {
        if (driver[f.index()] == UINT32_MAX || mark[f.index()] == net) {
          continue;
        }
        mark[f.index()] = net;
        stack.push_back(f.index());
      }
    }
  }
  FlowMapOptions opt;
  opt.k = 4;
  const FlowMapLabels labels = flowmap_label(subject, opt);
  EXPECT_GT(labels.label_visits, 0u);
  EXPECT_LE(3 * labels.label_visits, cone_sum)
      << labels.label_visits << " visits, cones " << cone_sum;
}

}  // namespace
}  // namespace mcrt
