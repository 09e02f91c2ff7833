// Built-in pass adapters: each must match the library function it wraps,
// record its metrics, and compose into flows equivalent to the legacy
// hand-wired chains.
#include "pipeline/passes.h"

#include <gtest/gtest.h>

#include <memory>
#include <variant>

#include "../common/test_circuits.h"
#include "blif/blif.h"
#include "mcretime/mc_retime.h"
#include "pipeline/diagnostics.h"
#include "pipeline/flow_context.h"
#include "pipeline/flow_script.h"
#include "pipeline/pass_manager.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/flowmap.h"
#include "transform/strash.h"
#include "transform/sweep.h"
#include "workload/generator.h"

#ifndef MCRT_TESTDATA_DIR
#error "MCRT_TESTDATA_DIR must point at the repo's testdata directory"
#endif

namespace mcrt {
namespace {

TEST(PassesTest, SweepPassMatchesDirectCall) {
  const Netlist input = testing::fig1_circuit();
  SweepStats direct_stats;
  const Netlist direct = sweep(input, &direct_stats);

  FlowContext context(input);
  SweepPass pass;
  const PassResult result = pass.run(context);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(context.netlist().node_count(), direct.node_count());
  EXPECT_EQ(context.metric("sweep.nodes_removed"),
            static_cast<std::int64_t>(direct_stats.nodes_removed));
}

TEST(PassesTest, MapPassProducesKBoundedLuts) {
  FlowContext context(testing::chain_circuit(6, 2));
  PassManager manager;
  std::string error;
  auto pass = std::make_unique<MapPass>();
  PassArgs args;
  args.set("k", "4");
  ASSERT_TRUE(pass->configure(args, &error)) << error;
  manager.add(std::move(pass));
  ASSERT_TRUE(manager.run(context).success);
  EXPECT_TRUE(context.metric("map.luts").has_value());
  for (const Node& node : context.netlist().nodes()) {
    if (node.kind == NodeKind::kLut) {
      EXPECT_LE(node.fanins.size(), 4u);
    }
  }
}

TEST(PassesTest, RetimePassFillsTypedStatsAndMetrics) {
  FlowContext context(testing::chain_circuit(8, 4));
  RetimePass pass;  // script defaults: d=10 on delay-less LUTs
  const PassResult result = pass.run(context);
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_TRUE(context.retime_stats.has_value());
  EXPECT_GE(context.retime_stats->num_classes, 1u);
  EXPECT_LT(context.retime_stats->period_after,
            context.retime_stats->period_before);
  EXPECT_EQ(context.metric("retime.period_after"),
            context.retime_stats->period_after);
}

TEST(PassesTest, RetimePassSweepsWdOncePerCallAcrossRetries) {
  // Two inputs that need several relocation attempts: a swept ~1k-gate
  // generated design with async resets under min-period, and corpus
  // circuit r03 under min-area. Min-period probes and retries run the
  // bounded FEAS alone: no all-pairs W/D sweep and no
  // difference-constraint solve. Min-area sweeps once for its period's
  // constraints and keeps them across every retry. The counters are
  // deterministic, so this holds on any machine.
  const Netlist generated =
      sweep(generate_circuit(scaled_profile(1000, 1)), nullptr);
  auto read = read_blif_file(std::string(MCRT_TESTDATA_DIR) +
                             "/corpus/r03.blif");
  ASSERT_TRUE(std::holds_alternative<Netlist>(read));
  const Netlist r03 = sweep(std::get<Netlist>(read), nullptr);
  for (const bool minperiod : {true, false}) {
    SCOPED_TRACE(minperiod ? "generated, minperiod" : "r03, min-area");
    FlowContext context(minperiod ? generated : r03);
    RetimePass pass;
    PassArgs args;
    args.set("d", "10");
    if (minperiod) args.set("minperiod", "");
    std::string error;
    ASSERT_TRUE(pass.configure(args, &error)) << error;
    const PassResult result = pass.run(context);
    ASSERT_TRUE(result.success) << result.error;
    EXPECT_GE(context.metric("retime.attempts").value_or(0), 2)
        << "the input no longer exercises relocation retries";
    // The retries replay justifications the first attempt solved.
    EXPECT_GT(context.metric("retime.justification_reuses").value_or(0), 0);
    EXPECT_EQ(context.metric("retime.wd_sweeps"), minperiod ? 0 : 1)
        << "minperiod " << minperiod;
    if (minperiod) {
      EXPECT_EQ(context.metric("retime.wd_settled"), 0);
    } else {
      EXPECT_GT(context.metric("retime.wd_settled").value_or(0), 0);
    }
    EXPECT_GT(context.metric("retime.feas_probes").value_or(0),
              context.metric("retime.attempts").value_or(0));
    EXPECT_GT(context.metric("retime.feas_rounds").value_or(0), 0);
    if (minperiod) {
      EXPECT_EQ(context.metric("retime.dc_relaxations"), 0);
    }
    // Min-area runs a min-cost flow on every attempt; a phase routes at
    // least one augmenting path. The min-period objective runs none.
    const std::int64_t phases =
        context.metric("retime.mcf_phases").value_or(-1);
    const std::int64_t augmentations =
        context.metric("retime.mcf_augmentations").value_or(-1);
    if (minperiod) {
      EXPECT_EQ(phases, 0);
      EXPECT_EQ(augmentations, 0);
    } else {
      EXPECT_GE(phases, context.metric("retime.attempts").value_or(0));
      EXPECT_GE(augmentations, phases);
    }
  }
}

TEST(PassesTest, MinPeriodScriptConvergesOnScaledDesign) {
  // "sweep; retime(minperiod)" on the ~4k-gate generated design of
  // `mcrt corpus D --count 0 --gates 4000` (async resets, enables): FEAS's
  // least labels make few backward moves, so relocation converges within
  // two attempts where the greatest labels <= 0 ran out of attempts.
  PassManager manager;
  const auto error = compile_flow_script(
      "sweep; retime(minperiod)", PassRegistry::standard(), manager);
  ASSERT_FALSE(error.has_value()) << *error;
  FlowContext context(generate_circuit(scaled_profile(4000, 1)));
  const FlowResult result = manager.run(context);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_LE(context.metric("retime.attempts").value_or(0), 2);
  EXPECT_GE(context.metric("retime.attempts").value_or(0), 1);
}

TEST(PassesTest, RetimePassWarnsOncePerDerivedClockRegister) {
  // One register is clocked from a primary input, one from a gate: both
  // script names retime the circuit and warn exactly once, naming the
  // gate-clocked register, through the flow's diagnostics sink.
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId clk_en = n.add_input("clk_en");
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId gclk = n.add_lut(TruthTable::and_n(2), {clk, clk_en}, "gclk");
  Register pi_clocked;
  pi_clocked.name = "r_pi";
  pi_clocked.d = n.add_lut(TruthTable::and_n(2), {a, b}, "x");
  pi_clocked.clk = clk;
  const NetId q1 = n.add_register(std::move(pi_clocked));
  Register gate_clocked;
  gate_clocked.name = "r_gated";
  gate_clocked.d = n.add_lut(TruthTable::inverter(), {q1}, "y");
  gate_clocked.clk = gclk;
  n.add_output("out", n.add_register(std::move(gate_clocked)));
  CollectingDiagnostics diagnostics;
  FlowContext context(n, &diagnostics);
  RetimePass pass;
  const PassResult result = pass.run(context);
  ASSERT_TRUE(result.success) << result.error;
  const auto eq = check_sequential_equivalence(n, context.netlist(), {});
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
  EXPECT_EQ(diagnostics.messages(DiagSeverity::kWarning),
            std::vector<std::string>{
                "register r_gated: clock is not a primary input"});
}

TEST(PassesTest, RetimePassHonorsScriptArguments) {
  std::string error;
  {
    RetimePass pass;
    PassArgs args;
    args.set("target", "24");
    args.set("no-sharing", "");
    ASSERT_TRUE(pass.configure(args, &error)) << error;
  }
  {
    RetimePass pass;
    PassArgs args;
    args.set("bogus", "1");
    EXPECT_FALSE(pass.configure(args, &error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
  }
  {
    // Windowed retiming has no script entry point.
    RetimePass pass;
    PassArgs args;
    args.set("window-size", "16");
    args.set("d", "10");
    EXPECT_FALSE(pass.configure(args, &error));
    EXPECT_EQ(error, "pass 'retime' does not take argument 'window-size'");
  }
  {
    MapPass pass;
    PassArgs args;
    args.set("k", "1");  // FlowMap needs k >= 2
    EXPECT_FALSE(pass.configure(args, &error));
  }
}

Netlist combinational_cycle_circuit() {
  Netlist n;
  const NetId a = n.add_net("a");
  const NetId b = n.add_lut(TruthTable::inverter(), {a}, "g0");
  n.add_lut_driving(a, TruthTable::inverter(), {b});
  n.add_output("o", b);
  return n;
}

TEST(PassesTest, InvalidInputIsRejectedBeforeAnyPassRuns) {
  // A combinational cycle fails Netlist::validate(): the manager's
  // pre-flight check must reject it instead of blaming the first pass.
  FlowContext context(combinational_cycle_circuit());
  PassManager manager;  // default: invariant checking on
  manager.add(std::make_unique<RetimePass>());
  const FlowResult result = manager.run(context);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.executed.empty());
  EXPECT_NE(result.error.find("input"), std::string::npos);
}

TEST(PassesTest, ThrowingPassBecomesAPassFailureNotACrash) {
  // With checking disabled the cycle reaches mc_retime, which throws; the
  // manager must convert the exception into that pass's failure.
  FlowContext context(combinational_cycle_circuit());
  PassManagerOptions options;
  options.check_invariants = false;
  PassManager manager(options);
  manager.add(std::make_unique<RetimePass>());
  const FlowResult result = manager.run(context);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("retime:"), std::string::npos);
  EXPECT_NE(result.error.find("exception"), std::string::npos);
}

/// The legacy hand-wired chain and the scripted flow must agree.
TEST(PassesTest, ScriptedFlowMatchesLegacyChain) {
  const Netlist input = testing::fig1_circuit();
  // Legacy: sweep -> strash -> retime with default delay assignment.
  Netlist legacy = structural_hash(sweep(input, nullptr), nullptr);
  for (std::size_t i = 0; i < legacy.node_count(); ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    if (legacy.node(id).kind == NodeKind::kLut &&
        !legacy.node(id).fanins.empty() && legacy.node(id).delay == 0) {
      legacy.set_node_delay(id, 10);
    }
  }
  const McRetimeResult legacy_retimed = mc_retime(legacy, {});
  ASSERT_TRUE(legacy_retimed.success);

  // Scripted equivalent.
  PassManager manager;
  ASSERT_EQ(compile_flow_script("sweep; strash; retime",
                                PassRegistry::standard(), manager),
            std::nullopt);
  FlowContext context(input);
  ASSERT_TRUE(manager.run(context).success);

  EquivalenceOptions opt;
  opt.runs = 4;
  opt.cycles = 48;
  EXPECT_TRUE(check_sequential_equivalence(legacy_retimed.netlist,
                                           context.netlist(), opt)
                  .equivalent);
  // Same register count: the flows ran identical steps.
  EXPECT_EQ(context.netlist().register_count(),
            legacy_retimed.netlist.register_count());
}

TEST(PassesTest, FullScriptedFlowStaysEquivalent) {
  const Netlist input = testing::chain_circuit(6, 3);
  PassManagerOptions options;
  options.check_equivalence = true;  // spot check every pass
  options.equivalence.runs = 2;
  options.equivalence.cycles = 32;
  PassManager manager(options);
  ASSERT_EQ(compile_flow_script(
                "sweep; strash; regsweep; retime(minperiod); map(k=4)",
                PassRegistry::standard(), manager),
            std::nullopt);
  FlowContext context(input);
  const FlowResult result = manager.run(context);
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_EQ(result.executed.size(), 5u);

  EquivalenceOptions opt;
  opt.runs = 4;
  opt.cycles = 48;
  EXPECT_TRUE(
      check_sequential_equivalence(input, context.netlist(), opt).equivalent);
}

TEST(PassesTest, DecomposePassesRemoveTheirControls) {
  {
    FlowContext context(testing::fig1_circuit());
    DecomposeEnPass pass;
    ASSERT_TRUE(pass.run(context).success);
    EXPECT_EQ(context.netlist().stats().with_en, 0u);
  }
}

}  // namespace
}  // namespace mcrt
