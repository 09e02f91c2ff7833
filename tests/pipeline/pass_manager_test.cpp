// PassManager execution: ordering, timing, diagnostics, invariant
// checking and equivalence spot checks.
#include "pipeline/pass_manager.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "../common/test_circuits.h"
#include "netlist/truth_table.h"
#include "pipeline/diagnostics.h"
#include "pipeline/flow_context.h"
#include "pipeline/passes.h"

namespace mcrt {
namespace {

/// Test pass running a callback; used to observe ordering and inject
/// failures or corruptions.
class LambdaPass final : public Pass {
 public:
  using Fn = std::function<PassResult(FlowContext&)>;
  LambdaPass(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::string_view description() const override {
    return "test pass";
  }
  PassResult run(FlowContext& context) override { return fn_(context); }

 private:
  std::string name_;
  Fn fn_;
};

TEST(PassManagerTest, RunsPassesInOrderAndRecordsProfile) {
  std::vector<std::string> order;
  PassManager manager;
  for (const char* name : {"first", "second", "third"}) {
    manager.add(std::make_unique<LambdaPass>(name, [&order, name](
                                                       FlowContext&) {
      order.push_back(name);
      return PassResult::ok("done");
    }));
  }
  FlowContext context(testing::fig1_circuit());
  const FlowResult result = manager.run(context);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "third"}));
  ASSERT_EQ(result.executed.size(), 3u);
  EXPECT_EQ(result.executed[0].name, "first");
  EXPECT_EQ(result.executed[2].name, "third");
  for (const PassExecution& e : result.executed) {
    EXPECT_TRUE(e.success);
    EXPECT_GE(e.seconds, 0.0);
    EXPECT_EQ(e.summary, "done");
  }
  EXPECT_EQ(result.profile.phases().size(), 3u);
  // The profile table mentions every pass.
  const std::string table = format_profile(result.executed);
  EXPECT_NE(table.find("first"), std::string::npos);
  EXPECT_NE(table.find("third"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(PassManagerTest, FailingPassStopsTheFlow) {
  std::vector<std::string> order;
  PassManager manager;
  manager.add(std::make_unique<LambdaPass>("ok", [&](FlowContext&) {
    order.push_back("ok");
    return PassResult::ok();
  }));
  manager.add(std::make_unique<LambdaPass>("boom", [&](FlowContext&) {
    order.push_back("boom");
    return PassResult::fail("deliberate failure");
  }));
  manager.add(std::make_unique<LambdaPass>("never", [&](FlowContext&) {
    order.push_back("never");
    return PassResult::ok();
  }));
  CollectingDiagnostics diag;
  FlowContext context(testing::fig1_circuit(), &diag);
  const FlowResult result = manager.run(context);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.error, "boom: deliberate failure");
  EXPECT_EQ(order, (std::vector<std::string>{"ok", "boom"}));
  ASSERT_EQ(result.executed.size(), 2u);
  EXPECT_FALSE(result.executed.back().success);
  // The failure was reported through the sink, attributed to the pass.
  ASSERT_TRUE(diag.has_errors());
  EXPECT_EQ(diag.diagnostics().back().origin, "boom");
}

TEST(PassManagerTest, InvariantViolationIsSurfacedWithEveryProblem) {
  PassManagerOptions options;
  options.check_invariants = true;
  PassManager manager(options);
  manager.add(std::make_unique<LambdaPass>("corrupt", [](FlowContext& ctx) {
    // Break the register invariant directly: a sync value without a sync
    // control net (Netlist::validate flags this).
    ctx.netlist().reg(RegId{0}).sync_val = ResetVal::kZero;
    ctx.netlist().reg(RegId{1}).sync_val = ResetVal::kOne;
    return PassResult::ok("silently corrupted the netlist");
  }));
  manager.add(std::make_unique<LambdaPass>("never", [](FlowContext&) {
    ADD_FAILURE() << "flow must stop at the invariant violation";
    return PassResult::ok();
  }));
  CollectingDiagnostics diag;
  FlowContext context(testing::fig1_circuit(), &diag);
  const FlowResult result = manager.run(context);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("corrupt"), std::string::npos);
  EXPECT_NE(result.error.find("invariant"), std::string::npos);
  // Both broken registers show up, not just the first problem.
  EXPECT_GE(diag.messages(DiagSeverity::kError).size(), 2u);
}

TEST(PassManagerTest, InvariantCheckingCanBeDisabled) {
  PassManagerOptions options;
  options.check_invariants = false;
  PassManager manager(options);
  manager.add(std::make_unique<LambdaPass>("corrupt", [](FlowContext& ctx) {
    ctx.netlist().reg(RegId{0}).sync_val = ResetVal::kZero;
    return PassResult::ok();
  }));
  FlowContext context(testing::fig1_circuit());
  EXPECT_TRUE(manager.run(context).success);
}

TEST(PassManagerTest, EquivalenceSpotCheckCatchesMiscompile) {
  PassManagerOptions options;
  options.check_equivalence = true;
  options.equivalence.runs = 2;
  options.equivalence.cycles = 32;
  PassManager manager(options);
  manager.add(std::make_unique<LambdaPass>("miscompile", [](FlowContext& ctx) {
    // Turn the AND in fig1 into a NAND: structurally valid, functionally
    // wrong.
    Netlist& n = ctx.netlist();
    for (std::size_t i = 0; i < n.node_count(); ++i) {
      Node& node = n.node(NodeId{static_cast<std::uint32_t>(i)});
      if (node.kind == NodeKind::kLut && node.fanins.size() == 2) {
        node.function = TruthTable::nand_n(2);
      }
    }
    return PassResult::ok();
  }));
  FlowContext context(testing::fig1_circuit());
  const FlowResult result = manager.run(context);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("equivalence"), std::string::npos);
}

TEST(PassManagerTest, EquivalenceSpotCheckPassesHonestPasses) {
  PassManagerOptions options;
  options.check_equivalence = true;
  options.equivalence.runs = 2;
  options.equivalence.cycles = 32;
  PassManager manager(options);
  manager.add(std::make_unique<SweepPass>());
  manager.add(std::make_unique<StrashPass>());
  FlowContext context(testing::fig1_circuit());
  EXPECT_TRUE(manager.run(context).success);
}

TEST(PassManagerTest, VerboseReportsSummariesThroughTheSink) {
  PassManagerOptions options;
  options.verbose = true;
  PassManager manager(options);
  manager.add(std::make_unique<SweepPass>());
  CollectingDiagnostics diag;
  FlowContext context(testing::fig1_circuit(), &diag);
  EXPECT_TRUE(manager.run(context).success);
  ASSERT_FALSE(diag.diagnostics().empty());
  EXPECT_EQ(diag.diagnostics().front().origin, "sweep");
}

TEST(PassRegistryTest, StandardRegistryKnowsTheBuiltins) {
  const PassRegistry& registry = PassRegistry::standard();
  for (const char* name : {"sweep", "strash", "regsweep", "decompose-en",
                           "decompose-sync", "map", "retime"}) {
    EXPECT_NE(registry.create(name), nullptr) << name;
  }
  EXPECT_EQ(registry.create("nonsense"), nullptr);
  EXPECT_GE(registry.names().size(), 7u);
}

TEST(PassRegistryTest, DuplicateRegistrationIsRejected) {
  PassRegistry registry;
  EXPECT_TRUE(registry.register_pass(
      "p", [] { return std::unique_ptr<Pass>(); }));
  EXPECT_FALSE(registry.register_pass(
      "p", [] { return std::unique_ptr<Pass>(); }));
}

TEST(FlowContextTest, MetricsAndOptionsRoundTrip) {
  FlowContext context(testing::fig1_circuit());
  context.set_metric("m", 3);
  context.add_metric("m", 4);
  EXPECT_EQ(context.metric("m"), 7);
  EXPECT_EQ(context.metric("missing"), std::nullopt);
}

}  // namespace
}  // namespace mcrt
