// End-to-end tests of the full multiple-class retiming flow, including the
// paper's headline property: the retimed circuit is behaviourally
// equivalent and its clock period never worse.
#include "mcretime/mc_retime.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <tuple>
#include <variant>

#include "../common/fnv1a.h"
#include "../common/test_circuits.h"
#include "blif/blif.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/flowmap.h"
#include "tech/sta.h"
#include "transform/decompose_controls.h"
#include "transform/sweep.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

#ifndef MCRT_TESTDATA_DIR
#error "MCRT_TESTDATA_DIR must point at the repo's testdata directory"
#endif

namespace mcrt {
namespace {

TEST(McRetimeTest, ChainMinPeriod) {
  // 6 inverters (delay 1 each) followed by 2 registers: optimal retiming
  // spreads the registers, period 6 -> 2.
  Netlist n = testing::chain_circuit(6, 2);
  McRetimeOptions options;
  options.objective = McRetimeOptions::Objective::kMinPeriod;
  const auto result = mc_retime(n, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.stats.period_before, 6);
  EXPECT_EQ(result.stats.period_after, 2);
  EXPECT_EQ(compute_period(result.netlist), 2);
  EXPECT_TRUE(result.netlist.validate().empty());
  const auto eq = check_sequential_equivalence(n, result.netlist, {});
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(McRetimeTest, Fig1ForwardMoveKeepsEnable) {
  // The paper's Fig. 1a -> 1b: the two EN registers move forward across
  // the AND gate as one layer of a single class; no mux logic appears and
  // the register count drops to one.
  Netlist n = testing::fig1_circuit();
  // Give the AND gate delay so that moving forward is period-neutral and
  // minarea prefers fewer registers.
  for (std::size_t i = 0; i < n.node_count(); ++i) {
    if (n.nodes()[i].kind == NodeKind::kLut) {
      n.set_node_delay(NodeId{static_cast<std::uint32_t>(i)}, 1);
    }
  }
  const auto result = mc_retime(n, {});
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.stats.num_classes, 1u);
  EXPECT_EQ(result.stats.registers_after, 1u);
  EXPECT_EQ(result.netlist.stats().with_en, 1u);
  // No combinational nodes added (the decomposition approach would add 2
  // muxes + keep 2 registers, paper Fig. 1d).
  EXPECT_EQ(result.netlist.stats().luts, n.stats().luts);
  const auto eq = check_sequential_equivalence(n, result.netlist, {});
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(McRetimeTest, PeriodNeverWorse) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCircuitOptions opt;
    opt.gates = 30;
    opt.registers = 8;
    Netlist n = sweep(random_sequential_circuit(seed, opt), nullptr);
    // Give every LUT a delay so timing is meaningful.
    for (std::size_t i = 0; i < n.node_count(); ++i) {
      if (n.nodes()[i].kind == NodeKind::kLut) {
        n.set_node_delay(NodeId{static_cast<std::uint32_t>(i)}, 10);
      }
    }
    const auto result = mc_retime(n, {});
    ASSERT_TRUE(result.success) << "seed " << seed << ": " << result.error;
    EXPECT_LE(result.stats.period_after, result.stats.period_before)
        << "seed " << seed;
    EXPECT_EQ(compute_period(result.netlist), result.stats.period_after)
        << "seed " << seed;
  }
}

TEST(McRetimeTest, EquivalenceOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomCircuitOptions opt;
    opt.gates = 25;
    opt.registers = 7;
    Netlist n = sweep(random_sequential_circuit(seed, opt), nullptr);
    for (std::size_t i = 0; i < n.node_count(); ++i) {
      if (n.nodes()[i].kind == NodeKind::kLut) {
        n.set_node_delay(NodeId{static_cast<std::uint32_t>(i)}, 10);
      }
    }
    const auto result = mc_retime(n, {});
    ASSERT_TRUE(result.success) << "seed " << seed << ": " << result.error;
    EXPECT_TRUE(result.netlist.validate().empty()) << "seed " << seed;
    EquivalenceOptions eq_opt;
    eq_opt.runs = 4;
    eq_opt.cycles = 48;
    const auto eq = check_sequential_equivalence(n, result.netlist, eq_opt);
    EXPECT_TRUE(eq.equivalent)
        << "seed " << seed << ": " << eq.counterexample;
  }
}

TEST(McRetimeTest, EquivalenceOnMappedCircuits) {
  // The paper's actual flow: retime a mapped LUT netlist.
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    RandomCircuitOptions opt;
    opt.gates = 30;
    opt.registers = 8;
    const Netlist raw = random_sequential_circuit(seed, opt);
    const Netlist mapped =
        flowmap_map(decompose_to_binary(sweep(raw, nullptr)), {}).mapped;
    const auto result = mc_retime(mapped, {});
    ASSERT_TRUE(result.success) << "seed " << seed << ": " << result.error;
    EquivalenceOptions eq_opt;
    eq_opt.runs = 3;
    eq_opt.cycles = 32;
    const auto eq =
        check_sequential_equivalence(mapped, result.netlist, eq_opt);
    EXPECT_TRUE(eq.equivalent)
        << "seed " << seed << ": " << eq.counterexample;
  }
}

TEST(McRetimeTest, MinAreaNotWorseThanMinPeriodOnRegisters) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomCircuitOptions opt;
    opt.gates = 25;
    opt.registers = 8;
    Netlist n = sweep(random_sequential_circuit(seed, opt), nullptr);
    for (std::size_t i = 0; i < n.node_count(); ++i) {
      if (n.nodes()[i].kind == NodeKind::kLut) {
        n.set_node_delay(NodeId{static_cast<std::uint32_t>(i)}, 10);
      }
    }
    McRetimeOptions mp;
    mp.objective = McRetimeOptions::Objective::kMinPeriod;
    McRetimeOptions ma;
    ma.objective = McRetimeOptions::Objective::kMinAreaMinPeriod;
    const auto rp = mc_retime(n, mp);
    const auto ra = mc_retime(n, ma);
    ASSERT_TRUE(rp.success && ra.success) << "seed " << seed;
    EXPECT_EQ(ra.stats.period_after, rp.stats.period_after) << "seed " << seed;
    EXPECT_LE(ra.stats.registers_after, rp.stats.registers_after)
        << "seed " << seed;
  }
}

TEST(McRetimeTest, MultiClassCircuitRetainsClasses) {
  RandomCircuitOptions opt;
  opt.control_signatures = 4;
  Netlist n = sweep(random_sequential_circuit(33, opt), nullptr);
  const auto result = mc_retime(n, {});
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GE(result.stats.num_classes, 2u);
}

TEST(McRetimeTest, StatsAreConsistent) {
  Netlist n = testing::chain_circuit(6, 2);
  const auto result = mc_retime(n, {});
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.registers_before, 2u);
  EXPECT_GT(result.stats.moved_layers, 0u);
  EXPECT_GE(result.stats.possible_steps, result.stats.moved_layers);
  EXPECT_EQ(result.stats.attempts, 1u);
  EXPECT_EQ(result.stats.justification_reuses, 0u);
  // Profile covers the three phases.
  EXPECT_GE(result.stats.profile.phases().size(), 3u);
}

TEST(McRetimeTest, ConflictBoundRecomputeLoop) {
  // Two inputs (delay 10 per LUT) whose first retiming asks for register
  // moves whose reset states cannot be justified: a swept ~1k-gate
  // generated design with async resets under min-period, and corpus
  // circuit r03 (after sweep) under min-area. Relocation fails, a bound is
  // added at the conflict vertex and the recomputed retiming is
  // implemented on a later attempt.
  Netlist generated = sweep(generate_circuit(scaled_profile(1000, 1)));
  set_default_lut_delays(generated, 10);
  auto read = read_blif_file(std::string(MCRT_TESTDATA_DIR) +
                             "/corpus/r03.blif");
  ASSERT_TRUE(std::holds_alternative<Netlist>(read));
  Netlist r03 = sweep(std::get<Netlist>(read), nullptr);
  set_default_lut_delays(r03, 10);
  for (const auto& [name, n, objective] :
       {std::tuple{"generated", &generated,
                   McRetimeOptions::Objective::kMinPeriod},
        std::tuple{"r03", &r03,
                   McRetimeOptions::Objective::kMinAreaMinPeriod}}) {
    SCOPED_TRACE(name);
    McRetimeOptions options;
    options.objective = objective;
    const auto result = mc_retime(*n, options);
    ASSERT_TRUE(result.success) << result.error;
    EXPECT_GE(result.stats.attempts, 2u)
        << "the input no longer exercises the bound-and-recompute loop";
    EXPECT_LT(result.stats.period_after, result.stats.period_before);
    const auto eq = check_sequential_equivalence(*n, result.netlist, {});
    EXPECT_TRUE(eq.equivalent) << eq.counterexample;
  }
}

TEST(McRetimeTest, RetryOutputsPinnedToParent) {
  // FNV-1a of the retimed BLIF and the attempt count on designs that go
  // through the bound-and-recompute loop: reuse of work across attempts
  // must not change a single register, value or retry.
  struct Pin {
    const char* name;
    std::uint64_t blif;
    std::size_t attempts;
  };
  static constexpr Pin kPins[] = {
      {"s1000.1", 0x535dad2a5db83750ull, 2},
      {"s1000.2", 0x8a00a6999f56a7afull, 2},
      {"s1000.3", 0xb300b8c2b7c15180ull, 2},
      {"s1000.4", 0x8e7cc09d3850003aull, 2},
      {"C6", 0xf7da6c86b032b8a2ull, 7},
  };
  struct Design {
    Netlist netlist;
    McRetimeOptions options;
  };
  std::vector<Design> designs;
  // Min-period retiming of swept designs with async resets (the
  // gate-level min-period flow), LUT delay 10.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CircuitProfile profile = scaled_profile(1000, seed);
    profile.use_async = true;
    Netlist n = sweep(generate_circuit(profile));
    set_default_lut_delays(n, 10);
    McRetimeOptions options;
    options.objective = McRetimeOptions::Objective::kMinPeriod;
    designs.push_back({std::move(n), options});
  }
  // The paper's mapped C6 ("decompose-sync; sweep; map"), min-area at the
  // minimum period.
  const Netlist c6 =
      sweep(decompose_sync_controls(generate_circuit(paper_suite()[5])));
  designs.push_back(
      {flowmap_map(decompose_to_binary(c6), FlowMapOptions{}).mapped, {}});
  ASSERT_EQ(designs.size(), std::size(kPins));
  for (std::size_t i = 0; i < designs.size(); ++i) {
    SCOPED_TRACE(kPins[i].name);
    const McRetimeResult result =
        mc_retime(designs[i].netlist, designs[i].options);
    ASSERT_TRUE(result.success) << result.error;
    const std::uint64_t hash =
        testing::fnv1a64(write_blif_string(result.netlist));
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxull",
                  static_cast<unsigned long long>(hash));
    EXPECT_EQ(hash, kPins[i].blif) << "got " << hex;
    EXPECT_EQ(result.stats.attempts, kPins[i].attempts);
    // Every retry replays justifications the first attempt solved.
    EXPECT_GT(result.stats.justification_reuses, 0u);
  }
}

}  // namespace
}  // namespace mcrt
