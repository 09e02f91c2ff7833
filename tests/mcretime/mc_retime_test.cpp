// End-to-end tests of the full multiple-class retiming flow, including the
// paper's headline property: the retimed circuit is behaviourally
// equivalent and its clock period never worse.
#include "mcretime/mc_retime.h"

#include <gtest/gtest.h>

#include <variant>

#include "../common/test_circuits.h"
#include "blif/blif.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/flowmap.h"
#include "tech/sta.h"
#include "transform/sweep.h"
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
  EXPECT_GE(result.stats.attempts, 1u);
  // Profile covers the three phases.
  EXPECT_GE(result.stats.profile.phases().size(), 3u);
}

TEST(McRetimeTest, ConflictBoundRecomputeLoop) {
  // Corpus circuit r03 (after sweep, delay 10 per LUT): the first
  // retiming asks for register moves whose reset states cannot be
  // justified, so relocation fails, a bound is added at the conflict
  // vertex and the recomputed retiming is implemented on a later attempt.
  auto read = read_blif_file(std::string(MCRT_TESTDATA_DIR) +
                             "/corpus/r03.blif");
  ASSERT_TRUE(std::holds_alternative<Netlist>(read));
  Netlist n = sweep(std::get<Netlist>(read), nullptr);
  set_default_lut_delays(n, 10);
  for (const auto objective : {McRetimeOptions::Objective::kMinPeriod,
                               McRetimeOptions::Objective::kMinAreaMinPeriod}) {
    McRetimeOptions options;
    options.objective = objective;
    const auto result = mc_retime(n, options);
    ASSERT_TRUE(result.success) << result.error;
    EXPECT_GE(result.stats.attempts, 2u)
        << "r03 no longer exercises the bound-and-recompute loop";
    EXPECT_LT(result.stats.period_after, result.stats.period_before);
    const auto eq = check_sequential_equivalence(n, result.netlist, {});
    EXPECT_TRUE(eq.equivalent) << eq.counterexample;
  }
}

}  // namespace
}  // namespace mcrt
