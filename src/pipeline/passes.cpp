#include "pipeline/passes.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "base/strings.h"
#include "cslow/cslow.h"
#include "cslow/stream_check.h"
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
  if (const auto k = args.int_value("k", error)) {
    if (*k < 2) {
      *error = "map: k must be at least 2";
      return false;
    }
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

namespace {

// The optional C-slow front half shared by RetimePass / RetimeWindowedPass:
// transform before the solve, metrics + (optional) stream verification after.
struct CslowStage {
  std::optional<Netlist> original;  ///< kept only when verification is on
  CslowStats stats;
};

bool configure_cslow(const PassArgs& args, std::string* error,
                     std::uint32_t* factor, bool* verify) {
  if (const auto c = args.int_value_in_range(
          "cslow", 1, static_cast<std::int64_t>(kMaxCslowFactor), error)) {
    *factor = static_cast<std::uint32_t>(*c);
  } else if (args.contains("cslow")) {
    return false;
  }
  if (args.flag("cslow-verify")) {
    if (*factor == 0) {
      *error = "argument 'cslow-verify' needs cslow=C";
      return false;
    }
    *verify = true;
  }
  return true;
}

std::optional<PassResult> apply_cslow(FlowContext& context,
                                      std::uint32_t factor, bool verify,
                                      CslowStage* stage) {
  if (factor == 0) return std::nullopt;
  if (verify) stage->original = context.netlist();
  CslowResult cs = cslow_transform(context.netlist(), factor);
  if (!cs.success) return PassResult::fail("cslow: " + cs.error);
  stage->stats = cs.stats;
  context.replace_netlist(std::move(cs.netlist));
  return std::nullopt;
}

std::optional<PassResult> finish_cslow(FlowContext& context,
                                       std::uint32_t factor,
                                       const CslowStage& stage) {
  if (factor == 0) return std::nullopt;
  context.set_metric("cslow.factor", static_cast<std::int64_t>(factor));
  context.set_metric("cslow.registers_before",
                     static_cast<std::int64_t>(stage.stats.registers_before));
  context.set_metric("cslow.registers_after",
                     static_cast<std::int64_t>(stage.stats.registers_after));
  if (!stage.original.has_value()) return std::nullopt;
  CslowVerifyOptions options;
  options.cancel = context.cancel;
  const CslowVerifyResult v =
      verify_cslow(*stage.original, context.netlist(), factor, options);
  if (!v.pass) {
    return PassResult::fail(
        str_format("cslow verification failed: %s%s%s", v.sim.reason.c_str(),
                   v.bmc_detail.empty() ? "" : " / ", v.bmc_detail.c_str()));
  }
  if (v.sim.skipped) {
    context.note("cslow stream simulation skipped: " + v.sim.reason);
  }
  if (v.bmc_skipped) context.note("cslow BMC skipped: " + v.bmc_detail);
  context.set_metric("cslow.verified",
                     (v.sim.skipped && v.bmc_skipped) ? 0 : 1);
  return std::nullopt;
}

}  // namespace

bool RetimePass::configure(const PassArgs& args, std::string* error) {
  if (!args.expect_keys(
          {"target", "minperiod", "no-sharing", "d", "cslow", "cslow-verify"},
          name(), error)) {
    return false;
  }
  if (!configure_cslow(args, error, &cslow_, &cslow_verify_)) return false;
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
  CslowStage cslow_stage;
  if (auto failed = apply_cslow(context, cslow_, cslow_verify_, &cslow_stage)) {
    return *failed;
  }
  if (default_lut_delay_ > 0) {
    // This runs after the C-slow transform, so decomposition muxes get the
    // default delay too.
    set_default_lut_delays(context.netlist(), default_lut_delay_);
  }
  McRetimeOptions options = options_;
  options.cancel = context.cancel;
  McRetimeResult result = mc_retime(context.netlist(), options);
  if (!result.success) {
    return PassResult::fail("retiming failed: " + result.error);
  }
  context.replace_netlist(std::move(result.netlist));
  context.retime_stats = result.stats;
  const McRetimeStats& s = result.stats;
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
  if (auto failed = finish_cslow(context, cslow_, cslow_stage)) return *failed;
  const std::string cslow_note =
      cslow_ > 0 ? str_format("cslow=%u ", cslow_) : std::string();
  return PassResult::ok(str_format(
      "%sclasses=%zu steps=%zu/%zu period %lld -> %lld ff %zu -> %zu "
      "(attempts=%zu)",
      cslow_note.c_str(), s.num_classes, s.moved_layers, s.possible_steps,
      static_cast<long long>(s.period_before),
      static_cast<long long>(s.period_after), s.registers_before,
      s.registers_after, s.attempts));
}

bool RetimeWindowedPass::configure(const PassArgs& args, std::string* error) {
  if (!args.expect_keys({"window-size", "windows", "window-jobs", "refine",
                         "target", "minperiod", "no-sharing", "d", "cslow",
                         "cslow-verify"},
                        name(), error)) {
    return false;
  }
  if (!configure_cslow(args, error, &cslow_, &cslow_verify_)) return false;
  const auto size_arg = [&](const char* key, std::size_t* out) {
    if (const auto v = args.int_value(key, error)) {
      if (*v < 0) {
        *error = std::string("retime-windowed: ") + key +
                 " must be non-negative";
        return false;
      }
      *out = static_cast<std::size_t>(*v);
    } else if (args.contains(key)) {
      return false;
    }
    return true;
  };
  if (!size_arg("window-size", &options_.partition.max_window)) return false;
  std::size_t windows = 0;
  if (!size_arg("windows", &windows)) return false;
  options_.partition.window_count = windows;
  if (!size_arg("window-jobs", &options_.jobs)) return false;
  if (!size_arg("refine", &options_.refine_rounds)) return false;
  if (options_.partition.max_window == 0) {
    *error = "retime-windowed: window-size must be positive";
    return false;
  }
  if (const auto target = args.int_value("target", error)) {
    options_.base.target_period = *target;
  } else if (args.contains("target")) {
    return false;
  }
  if (args.flag("minperiod")) {
    options_.base.objective = McRetimeOptions::Objective::kMinPeriod;
  }
  if (args.flag("no-sharing")) options_.base.sharing_modification = false;
  if (const auto d = args.int_value("d", error)) {
    default_lut_delay_ = *d;
  } else if (args.contains("d")) {
    return false;
  }
  return true;
}

PassResult RetimeWindowedPass::run(FlowContext& context) {
  CslowStage cslow_stage;
  if (auto failed = apply_cslow(context, cslow_, cslow_verify_, &cslow_stage)) {
    return *failed;
  }
  if (default_lut_delay_ > 0) {
    set_default_lut_delays(context.netlist(), default_lut_delay_);
  }
  WindowedRetimeOptions options = options_;
  options.base.cancel = context.cancel;
  if (!options.progress) {
    options.progress = [&context](const std::string& line) {
      context.note(line);
    };
  }
  WindowedRetimeResult result = retime_windowed(context.netlist(), options);
  if (!result.success) {
    return PassResult::fail("windowed retiming failed: " + result.error);
  }
  context.replace_netlist(std::move(result.netlist));
  context.retime_stats = result.stats;
  const McRetimeStats& s = result.stats;
  const WindowedRetimeStats& w = result.window_stats;
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
  context.set_metric("retime.windows", static_cast<std::int64_t>(w.windows));
  context.set_metric("retime.cut_edges",
                     static_cast<std::int64_t>(w.cut_edges));
  context.set_metric("retime.window_timeouts",
                     static_cast<std::int64_t>(w.window_timeouts));
  context.set_metric("retime.refine_accepted",
                     static_cast<std::int64_t>(w.refine_accepted));
  if (auto failed = finish_cslow(context, cslow_, cslow_stage)) return *failed;
  const std::string cslow_note =
      cslow_ > 0 ? str_format("cslow=%u ", cslow_) : std::string();
  return PassResult::ok(str_format(
      "%swindows=%zu classes=%zu period %lld -> %lld ff %zu -> %zu "
      "(cut=%zu refine=%zu/%zu attempts=%zu)",
      cslow_note.c_str(), w.windows, s.num_classes,
      static_cast<long long>(s.period_before),
      static_cast<long long>(s.period_after), s.registers_before,
      s.registers_after, w.cut_edges, w.refine_accepted, w.refine_rounds_run,
      s.attempts));
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
  registry.register_pass("retime-windowed", [] {
    return std::make_unique<RetimeWindowedPass>();
  });
  registry.register_pass("verify",
                         [] { return std::make_unique<VerifyPass>(); });
}

}  // namespace mcrt
