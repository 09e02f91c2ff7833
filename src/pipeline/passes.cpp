#include "pipeline/passes.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "base/strings.h"
#include "netlist/truth_table.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "transform/decompose_controls.h"
#include "transform/register_sweep.h"
#include "transform/strash.h"
#include "transform/sweep.h"
#include "verify/formal_equivalence.h"
#include "verify/ternary_bmc.h"

namespace mcrt {

PassResult SweepPass::run(FlowContext& context) {
  SweepStats stats;
  context.replace_netlist(sweep(context.netlist(), &stats));
  context.set_metric("sweep.nodes_removed",
                     static_cast<std::int64_t>(stats.nodes_removed));
  context.set_metric("sweep.registers_removed",
                     static_cast<std::int64_t>(stats.registers_removed));
  context.set_metric("sweep.constants_folded",
                     static_cast<std::int64_t>(stats.constants_folded));
  return PassResult::ok(
      str_format("removed %zu nodes, %zu registers; folded %zu",
                 stats.nodes_removed, stats.registers_removed,
                 stats.constants_folded));
}

PassResult StrashPass::run(FlowContext& context) {
  StrashStats stats;
  context.replace_netlist(structural_hash(context.netlist(), &stats));
  context.set_metric("strash.merged_nodes",
                     static_cast<std::int64_t>(stats.merged_nodes));
  return PassResult::ok(
      str_format("merged %zu duplicate nodes", stats.merged_nodes));
}

PassResult RegisterSweepPass::run(FlowContext& context) {
  RegisterSweepStats stats;
  context.replace_netlist(register_sweep(context.netlist(), &stats));
  context.set_metric("regsweep.merged_registers",
                     static_cast<std::int64_t>(stats.merged_registers));
  return PassResult::ok(
      str_format("merged %zu duplicate registers", stats.merged_registers));
}

PassResult DecomposeEnPass::run(FlowContext& context) {
  const std::size_t before = context.netlist().stats().with_en;
  context.replace_netlist(decompose_load_enables(context.netlist()));
  return PassResult::ok(
      str_format("decomposed %zu load enables into feedback muxes", before));
}

PassResult DecomposeSyncPass::run(FlowContext& context) {
  const std::size_t before = context.netlist().stats().with_sync;
  context.replace_netlist(decompose_sync_controls(context.netlist()));
  return PassResult::ok(
      str_format("decomposed %zu synchronous set/clear controls", before));
}

bool MapPass::configure(const PassArgs& args, std::string* error) {
  if (!args.expect_keys({"k", "d", "area-recovery"}, name(), error)) {
    return false;
  }
  // FlowMap forms LUTs of up to TruthTable::kMaxInputs inputs.
  if (const auto k = args.int_value_in_range(
          "k", 2, static_cast<std::int64_t>(TruthTable::kMaxInputs), error)) {
    options_.k = static_cast<std::uint32_t>(*k);
  } else if (args.contains("k")) {
    return false;
  }
  if (const auto d = args.int_value("d", error)) {
    options_.lut_delay = *d;
  } else if (args.contains("d")) {
    return false;
  }
  if (args.flag("area-recovery")) options_.area_recovery = true;
  return true;
}

PassResult MapPass::run(FlowContext& context) {
  FlowMapOptions options = options_;
  options.cancel = context.cancel;
  FlowMapResult mapped =
      flowmap_map(decompose_to_binary(context.netlist()), options);
  context.replace_netlist(std::move(mapped.mapped));
  context.set_metric("map.luts", static_cast<std::int64_t>(mapped.lut_count));
  context.set_metric("map.depth", static_cast<std::int64_t>(mapped.depth));
  return PassResult::ok(str_format("mapped to %zu %u-LUTs, depth %u",
                                   mapped.lut_count, options_.k,
                                   mapped.depth));
}

bool RetimePass::configure(const PassArgs& args, std::string* error) {
  if (!args.expect_keys({"target", "minperiod", "no-sharing", "d"}, name(),
                        error)) {
    return false;
  }
  if (const auto target = args.int_value("target", error)) {
    options_.target_period = *target;
  } else if (args.contains("target")) {
    return false;
  }
  if (args.flag("minperiod")) {
    options_.objective = McRetimeOptions::Objective::kMinPeriod;
  }
  if (args.flag("no-sharing")) options_.sharing_modification = false;
  if (const auto d = args.int_value("d", error)) {
    default_lut_delay_ = *d;
  } else if (args.contains("d")) {
    return false;
  }
  return true;
}

PassResult RetimePass::run(FlowContext& context) {
  if (default_lut_delay_ > 0) {
    set_default_lut_delays(context.netlist(), default_lut_delay_);
  }
  // The paper (§3.1) treats clocks as non-logic: flag clocks computed by
  // logic, which the mc-graph keeps unretimed behind a pinned control tap.
  const Netlist& netlist = context.netlist();
  for (const Register& ff : netlist.registers()) {
    const NetDriver& clk = netlist.net(ff.clk).driver;
    if (clk.kind != NetDriver::Kind::kNode ||
        netlist.node(NodeId{clk.index}).kind != NodeKind::kInput) {
      context.warning("register " + ff.name +
                      ": clock is not a primary input");
    }
  }

  McRetimeOptions options = options_;
  options.cancel = context.cancel;
  McRetimeResult result = mc_retime(netlist, options);
  if (!result.success) {
    return PassResult::fail("retiming failed: " + result.error);
  }
  context.replace_netlist(std::move(result.netlist));
  const McRetimeStats& s = result.stats;
  context.retime_stats = s;
  context.set_metric("retime.classes",
                     static_cast<std::int64_t>(s.num_classes));
  context.set_metric("retime.moved_layers",
                     static_cast<std::int64_t>(s.moved_layers));
  context.set_metric("retime.period_before", s.period_before);
  context.set_metric("retime.period_after", s.period_after);
  context.set_metric("retime.registers_before",
                     static_cast<std::int64_t>(s.registers_before));
  context.set_metric("retime.registers_after",
                     static_cast<std::int64_t>(s.registers_after));
  context.set_metric("retime.attempts", static_cast<std::int64_t>(s.attempts));
  context.set_metric("retime.justification_reuses",
                     static_cast<std::int64_t>(s.justification_reuses));
  for (const auto& [name, counter] : kRetimeWorkCounters) {
    context.set_metric("retime." + std::string(name),
                       static_cast<std::int64_t>(s.work.*counter));
  }
  return PassResult::ok(str_format(
      "classes=%zu steps=%zu/%zu period %lld -> %lld ff %zu -> %zu "
      "(attempts=%zu)",
      s.num_classes, s.moved_layers, s.possible_steps,
      static_cast<long long>(s.period_before),
      static_cast<long long>(s.period_after), s.registers_before,
      s.registers_after, s.attempts));
}

bool VerifyPass::configure(const PassArgs& args, std::string* error) {
  if (!args.expect_keys({"bmc", "formal", "sim", "depth", "x-ok", "cycles",
                         "runs"},
                        name(), error)) {
    return false;
  }
  const int methods = (args.flag("bmc") ? 1 : 0) + (args.flag("formal") ? 1 : 0)
                      + (args.flag("sim") ? 1 : 0);
  if (methods > 1) {
    *error = "verify: pick one of bmc, formal, sim";
    return false;
  }
  if (args.flag("bmc")) method_ = Method::kBmc;
  if (args.flag("formal")) method_ = Method::kFormal;
  if (args.flag("sim")) method_ = Method::kSim;
  const auto size_arg = [&](const char* key, std::size_t* out) {
    if (const auto v = args.int_value(key, error)) {
      if (*v <= 0) {
        *error = std::string("verify: ") + key + " must be positive";
        return false;
      }
      *out = static_cast<std::size_t>(*v);
    } else if (args.contains(key)) {
      return false;
    }
    return true;
  };
  if (!size_arg("depth", &depth_)) return false;
  if (!size_arg("cycles", &cycles_)) return false;
  if (!size_arg("runs", &runs_)) return false;
  x_refinement_ok_ = args.flag("x-ok");
  return true;
}

PassResult VerifyPass::run(FlowContext& context) {
  if (!context.reference.has_value()) {
    return PassResult::fail("verify: no reference netlist snapshot");
  }
  const auto unverified = [&](const std::string& why) {
    context.warning("verification skipped, result is unverified: " + why);
    context.set_metric("verify.unverified", 1);
    return PassResult::ok("unverified: " + why);
  };
  switch (method_) {
    case Method::kBmc: {
      TernaryBmcOptions options;
      options.depth = depth_;
      if (context.budgets.bmc_step_cap != 0) {
        options.depth = std::min(options.depth, context.budgets.bmc_step_cap);
      }
      options.x_refinement_ok = x_refinement_ok_;
      options.max_bdd_nodes = context.budgets.bdd_node_cap;
      options.cancel = context.cancel;
      const TernaryBmcResult bmc =
          check_ternary_bmc(*context.reference, context.netlist(), options);
      switch (bmc.verdict) {
        case TernaryBmcResult::Verdict::kEquivalentUpToDepth:
          context.set_metric("verify.unverified", 0);
          return PassResult::ok("bmc: " + bmc.detail);
        case TernaryBmcResult::Verdict::kMismatch:
          return PassResult::fail("bmc mismatch: " + bmc.detail);
        case TernaryBmcResult::Verdict::kUnsupported:
        case TernaryBmcResult::Verdict::kResourceLimit:
          return unverified("bmc: " + bmc.detail);
      }
      return PassResult::fail("bmc: unknown verdict");
    }
    case Method::kFormal: {
      FormalOptions options;
      options.max_bdd_nodes = context.budgets.bdd_node_cap;
      options.cancel = context.cancel;
      const FormalResult formal = check_formal_equivalence(
          *context.reference, context.netlist(), options);
      switch (formal.verdict) {
        case FormalResult::Verdict::kEquivalent:
          context.set_metric("verify.unverified", 0);
          return PassResult::ok("formal: " + formal.detail);
        case FormalResult::Verdict::kMismatch:
          return PassResult::fail("formal mismatch: " + formal.detail);
        case FormalResult::Verdict::kUnsupported:
          return unverified("formal: " + formal.detail);
      }
      return PassResult::fail("formal: unknown verdict");
    }
    case Method::kSim: {
      EquivalenceOptions options;
      options.cycles = cycles_;
      options.runs = runs_;
      const EquivalenceResult eq = check_sequential_equivalence(
          *context.reference, context.netlist(), options);
      if (!eq.equivalent) {
        return PassResult::fail("simulation mismatch: " + eq.counterexample);
      }
      context.set_metric("verify.unverified", 0);
      return PassResult::ok(str_format("sim: %zu runs x %zu cycles agree",
                                       runs_, cycles_));
    }
  }
  return PassResult::fail("verify: unknown method");
}

void register_standard_passes(PassRegistry& registry) {
  registry.register_pass("sweep",
                         [] { return std::make_unique<SweepPass>(); });
  registry.register_pass("strash",
                         [] { return std::make_unique<StrashPass>(); });
  registry.register_pass("regsweep",
                         [] { return std::make_unique<RegisterSweepPass>(); });
  registry.register_pass("decompose-en",
                         [] { return std::make_unique<DecomposeEnPass>(); });
  registry.register_pass("decompose-sync",
                         [] { return std::make_unique<DecomposeSyncPass>(); });
  registry.register_pass("map", [] { return std::make_unique<MapPass>(); });
  registry.register_pass("retime",
                         [] { return std::make_unique<RetimePass>(); });
  registry.register_pass("verify",
                         [] { return std::make_unique<VerifyPass>(); });
}

}  // namespace mcrt
