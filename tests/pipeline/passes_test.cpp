// Built-in pass adapters: each must match the library function it wraps,
// record its metrics, and compose into flows equivalent to the legacy
// hand-wired chains.
#include "pipeline/passes.h"

#include <gtest/gtest.h>

#include <memory>
#include <variant>

#include "../common/test_circuits.h"
#include "blif/blif.h"
#include "cslow/stream_check.h"
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
    if (node.kind == NodeKind::kLut) EXPECT_LE(node.fanins.size(), 4u);
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
  // Corpus circuit r03 needs several relocation attempts under both
  // objectives; every attempt, min-period probe and min-area solve must
  // share one all-pairs W/D sweep. The counter is deterministic, so this
  // guards the shared period-constraint table on any machine.
  auto read = read_blif_file(std::string(MCRT_TESTDATA_DIR) +
                             "/corpus/r03.blif");
  ASSERT_TRUE(std::holds_alternative<Netlist>(read));
  const Netlist input = sweep(std::get<Netlist>(read), nullptr);
  for (const bool minperiod : {true, false}) {
    FlowContext context(input);
    RetimePass pass;
    PassArgs args;
    args.set("d", "10");
    if (minperiod) args.set("minperiod", "");
    std::string error;
    ASSERT_TRUE(pass.configure(args, &error)) << error;
    const PassResult result = pass.run(context);
    ASSERT_TRUE(result.success) << result.error;
    EXPECT_GE(context.metric("retime.attempts").value_or(0), 2)
        << "r03 no longer exercises relocation retries";
    EXPECT_EQ(context.metric("retime.wd_sweeps"), 1) << "minperiod "
                                                     << minperiod;
    EXPECT_GT(context.metric("retime.feas_probes").value_or(0),
              context.metric("retime.attempts").value_or(0));
  }
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
  for (const bool windowed : {false, true}) {
    CollectingDiagnostics diagnostics;
    FlowContext context(n, &diagnostics);
    RetimePass pass(windowed);
    const PassResult result = pass.run(context);
    ASSERT_TRUE(result.success) << result.error;
    const auto eq = check_sequential_equivalence(n, context.netlist(), {});
    EXPECT_TRUE(eq.equivalent) << eq.counterexample;
    EXPECT_EQ(diagnostics.messages(DiagSeverity::kWarning),
              std::vector<std::string>{
                  "register r_gated: clock is not a primary input"})
        << pass.name();
  }
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
  for (const bool windowed : {false, true}) {
    // Window arguments belong to `retime-windowed` only.
    RetimePass pass(windowed);
    PassArgs args;
    args.set("window-size", "16");
    args.set("d", "10");
    EXPECT_EQ(pass.configure(args, &error), windowed) << error;
    EXPECT_EQ(pass.name(), windowed ? "retime-windowed" : "retime");
    if (!windowed) {
      EXPECT_EQ(error, "pass 'retime' does not take argument 'window-size'");
    }
  }
  {
    MapPass pass;
    PassArgs args;
    args.set("k", "1");  // FlowMap needs k >= 2
    EXPECT_FALSE(pass.configure(args, &error));
  }
}

TEST(PassesTest, RetimeCslowMultipliesRegistersAndVerifies) {
  for (const std::uint32_t factor : {2u, 3u}) {
    const Netlist input = testing::chain_circuit(8, 2);
    FlowContext context(input);
    PassManager manager;
    std::string error;
    auto pass = std::make_unique<RetimePass>();
    PassArgs args;
    args.set("cslow", std::to_string(factor));
    args.set("cslow-verify", "");
    ASSERT_TRUE(pass->configure(args, &error)) << error;
    manager.add(std::move(pass));
    ASSERT_TRUE(manager.run(context).success);
    EXPECT_EQ(context.metric("cslow.factor"),
              static_cast<std::int64_t>(factor));
    EXPECT_EQ(context.metric("cslow.registers_after"),
              static_cast<std::int64_t>(factor * input.register_count()));
    EXPECT_EQ(context.metric("cslow.verified"), 1);
    // Retiming the replicated chains must recover a shorter period than the
    // chain-at-the-end layout it starts from.
    ASSERT_TRUE(context.retime_stats.has_value());
    EXPECT_LT(context.retime_stats->period_after,
              context.retime_stats->period_before);
    // Stream equivalence holds against the *flow input*, independently of
    // the pass's own self-check.
    const StreamCheckResult eq =
        check_stream_equivalence(input, context.netlist(), factor);
    EXPECT_TRUE(eq.pass) << eq.reason;
    EXPECT_FALSE(eq.skipped);
  }
}

TEST(PassesTest, RetimeWindowedCslowComposes) {
  const Netlist input = testing::chain_circuit(12, 3);
  FlowContext context(input);
  PassManager manager;
  std::string error;
  ASSERT_EQ(compile_flow_script(
                "retime-windowed(window-size=16,window-jobs=2,cslow=2,"
                "cslow-verify)",
                PassRegistry::standard(), manager),
            std::nullopt);
  ASSERT_TRUE(manager.run(context).success);
  EXPECT_EQ(context.metric("cslow.factor"), 2);
  const StreamCheckResult eq =
      check_stream_equivalence(input, context.netlist(), 2);
  EXPECT_TRUE(eq.pass) << eq.reason;
}

TEST(PassesTest, RetimeCslowRecoversPerStreamPeriod) {
  // The headline C-slow property: after retiming, the C-slowed circuit's
  // period approaches T/C — here the 8-deep unit-delay chain retimes from
  // period 8 to at most ceil(8/2)+slack with one extra register layer.
  const Netlist input = testing::chain_circuit(8, 1, /*gate_delay=*/1);
  FlowContext mono_ctx(input);
  {
    RetimePass pass;
    PassArgs args;
    std::string error;
    ASSERT_TRUE(pass.configure(args, &error)) << error;
    ASSERT_TRUE(pass.run(mono_ctx).success);
  }
  FlowContext cs_ctx(input);
  {
    RetimePass pass;
    PassArgs args;
    std::string error;
    args.set("cslow", "2");
    ASSERT_TRUE(pass.configure(args, &error)) << error;
    ASSERT_TRUE(pass.run(cs_ctx).success);
  }
  ASSERT_TRUE(mono_ctx.retime_stats.has_value());
  ASSERT_TRUE(cs_ctx.retime_stats.has_value());
  EXPECT_LT(cs_ctx.retime_stats->period_after,
            mono_ctx.retime_stats->period_after);
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
