#include "pipeline/pass_manager.h"

#include <optional>
#include <utility>

#include "base/strings.h"
#include "pipeline/passes.h"

namespace mcrt {

bool PassRegistry::register_pass(std::string name, Factory factory) {
  return factories_.emplace(std::move(name), std::move(factory)).second;
}

std::unique_ptr<Pass> PassRegistry::create(const std::string& name) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) return nullptr;
  return it->second();
}

std::vector<std::string> PassRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iterates sorted
}

const PassRegistry& PassRegistry::standard() {
  static const PassRegistry* const registry = [] {
    auto* r = new PassRegistry;
    register_standard_passes(*r);
    return r;
  }();
  return *registry;
}

void PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

std::string format_profile(const std::vector<PassExecution>& executed) {
  std::string out = str_format("%-16s %9s %11s %9s  %s\n", "pass", "seconds",
                               "luts", "ffs", "summary");
  double total = 0;
  for (const PassExecution& e : executed) {
    total += e.seconds;
    const auto delta = [](std::size_t before, std::size_t after) {
      return static_cast<long long>(after) - static_cast<long long>(before);
    };
    out += str_format("%-16s %9.4f %6zu %+4lld %5zu %+3lld  %s\n",
                      e.name.c_str(), e.seconds, e.after.luts,
                      delta(e.before.luts, e.after.luts), e.after.registers,
                      delta(e.before.registers, e.after.registers),
                      e.summary.c_str());
  }
  out += str_format("%-16s %9.4f\n", "total", total);
  return out;
}

FlowResult PassManager::run(FlowContext& context) const {
  FlowResult result;
  if (options_.check_invariants) {
    // Pre-flight: a flow must start from a valid netlist, otherwise the
    // first pass gets blamed for problems it inherited.
    const std::vector<std::string> problems = context.netlist().validate();
    if (!problems.empty()) {
      context.set_active_pass("flow");
      for (const std::string& problem : problems) {
        context.error("input invariant violated: " + problem);
      }
      result.success = false;
      result.status = FlowStatus::kFailed;
      result.error = str_format("input: %zu netlist invariant(s) violated (%s)",
                                problems.size(), problems.front().c_str());
      return result;
    }
  }
  // Verification passes compare against the flow input; snapshot it only
  // when some pass will actually look.
  for (const std::unique_ptr<Pass>& pass : passes_) {
    if (pass->needs_reference()) {
      context.reference = context.netlist();
      break;
    }
  }
  for (const std::unique_ptr<Pass>& pass : passes_) {
    PassExecution exec;
    exec.name = std::string(pass->name());
    exec.before = context.netlist().stats();
    context.set_active_pass(exec.name);

    // A stop request between passes ends the flow cleanly at a pass
    // boundary (the netlist is whole here).
    if (const StopReason reason = cancel_requested(context.cancel);
        reason != StopReason::kNone) {
      result.success = false;
      result.status = reason == StopReason::kTimeout ? FlowStatus::kTimeout
                                                     : FlowStatus::kCancelled;
      result.error = str_format("flow %s before pass %s",
                                stop_reason_name(reason), exec.name.c_str());
      context.warning(result.error);
      break;
    }

    // The rollback snapshot doubles as the spot check's "before" netlist.
    std::optional<Netlist> pre_pass;
    if (options_.check_equivalence || options_.rollback_on_failure) {
      pre_pass = context.netlist();
    }
    const auto roll_back = [&](PassExecution& record) {
      if (!options_.rollback_on_failure || !pre_pass.has_value()) return;
      context.replace_netlist(std::move(*pre_pass));
      pre_pass.reset();
      record.rolled_back = true;
      record.after = context.netlist().stats();
      context.warning("netlist rolled back to the pre-" + record.name +
                      " snapshot");
    };

    Timer timer;
    // A throwing pass must not take down a whole (possibly batched) flow;
    // surface the exception as that pass's failure instead. A CancelledError
    // is not a pass failure: it records the stop and ends the flow.
    PassResult pass_result;
    std::optional<StopReason> stopped;
    try {
      pass_result = pass->run(context);
    } catch (const CancelledError& e) {
      stopped = e.reason();
    } catch (const std::exception& e) {
      pass_result = PassResult::fail(
          str_format("uncaught exception: %s", e.what()));
    }
    exec.seconds = timer.seconds();
    exec.after = context.netlist().stats();
    exec.success = pass_result.success && !stopped.has_value();
    exec.summary = pass_result.summary;
    result.profile.add(exec.name, exec.seconds);

    if (stopped.has_value()) {
      // The pass unwound mid-mutation; restore the snapshot so the caller
      // still holds a coherent netlist.
      roll_back(exec);
      result.success = false;
      result.status = *stopped == StopReason::kTimeout ? FlowStatus::kTimeout
                                                       : FlowStatus::kCancelled;
      result.error = exec.name + ": " + stop_reason_name(*stopped);
      context.warning(result.error);
      result.executed.push_back(std::move(exec));
      break;
    }
    if (!pass_result.success) {
      const std::string& why =
          pass_result.error.empty() ? "pass failed" : pass_result.error;
      context.error(why);
      roll_back(exec);
      result.success = false;
      result.status = FlowStatus::kFailed;
      result.error = exec.name + ": " + why;
      result.executed.push_back(std::move(exec));
      break;
    }
    if (options_.verbose && !exec.summary.empty()) context.note(exec.summary);

    if (options_.check_invariants) {
      const std::vector<std::string> problems = context.netlist().validate();
      if (!problems.empty()) {
        for (const std::string& problem : problems) {
          context.error("invariant violated: " + problem);
        }
        exec.success = false;
        roll_back(exec);
        result.success = false;
        result.status = FlowStatus::kFailed;
        result.error = str_format("%s: %zu netlist invariant(s) violated (%s)",
                                  exec.name.c_str(), problems.size(),
                                  problems.front().c_str());
        result.executed.push_back(std::move(exec));
        break;
      }
    }
    if (options_.check_equivalence && pre_pass.has_value()) {
      const EquivalenceResult eq = check_sequential_equivalence(
          *pre_pass, context.netlist(), options_.equivalence);
      if (!eq.equivalent) {
        context.error("equivalence spot check failed: " + eq.counterexample);
        exec.success = false;
        roll_back(exec);
        result.success = false;
        result.status = FlowStatus::kFailed;
        result.error = exec.name + ": equivalence spot check failed (" +
                       eq.counterexample + ")";
        result.executed.push_back(std::move(exec));
        break;
      }
    }
    result.executed.push_back(std::move(exec));
  }
  context.set_active_pass("flow");
  return result;
}

}  // namespace mcrt
