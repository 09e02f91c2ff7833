// Mutable state threaded through a pass pipeline.
//
// A FlowContext owns the netlist being transformed plus everything passes
// share around it: numeric metrics recorded by passes (so callers can
// report "removed 3 nodes" without parsing text), the typed statistics of
// the most recent retime pass, and the diagnostics sink that replaces
// scattered fprintf(stderr, ...) calls.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "base/cancel.h"
#include "mcretime/mc_retime.h"
#include "netlist/netlist.h"
#include "pipeline/diagnostics.h"

namespace mcrt {

class FlowContext {
 public:
  /// `sink == nullptr` routes diagnostics to default_diagnostics() (stderr).
  explicit FlowContext(Netlist netlist, DiagnosticsSink* sink = nullptr)
      : netlist_(std::move(netlist)), sink_(sink) {}

  // --- netlist -------------------------------------------------------------
  [[nodiscard]] Netlist& netlist() noexcept { return netlist_; }
  [[nodiscard]] const Netlist& netlist() const noexcept { return netlist_; }
  void replace_netlist(Netlist netlist) { netlist_ = std::move(netlist); }
  /// Moves the netlist out (the context is done after a flow completes).
  [[nodiscard]] Netlist take_netlist() { return std::move(netlist_); }

  // --- metrics -------------------------------------------------------------
  void set_metric(const std::string& key, std::int64_t value) {
    metrics_[key] = value;
  }
  void add_metric(const std::string& key, std::int64_t value) {
    metrics_[key] += value;
  }
  [[nodiscard]] std::optional<std::int64_t> metric(
      const std::string& key) const {
    const auto it = metrics_.find(key);
    if (it == metrics_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] const std::map<std::string, std::int64_t>& metrics()
      const noexcept {
    return metrics_;
  }

  // --- diagnostics ---------------------------------------------------------
  /// Reports attributed to the active pass (maintained by the PassManager).
  void note(std::string message) {
    sink().note(active_pass_, std::move(message));
  }
  void warning(std::string message) {
    sink().warning(active_pass_, std::move(message));
  }
  void error(std::string message) {
    sink().error(active_pass_, std::move(message));
  }
  [[nodiscard]] DiagnosticsSink& sink() noexcept {
    return sink_ != nullptr ? *sink_ : default_diagnostics();
  }
  void set_active_pass(std::string name) { active_pass_ = std::move(name); }
  [[nodiscard]] const std::string& active_pass() const noexcept {
    return active_pass_;
  }

  /// Statistics of the most recent retime pass, if one ran in this flow.
  std::optional<McRetimeStats> retime_stats;

  /// Cooperative cancellation for the flow (null = never cancelled). The
  /// PassManager polls it between passes and long-running passes thread it
  /// into their engines; a stop request unwinds with CancelledError.
  const CancelToken* cancel = nullptr;

  /// Per-flow resource budgets (each field 0 = unlimited). Verification
  /// passes degrade gracefully on a budget trip.
  ResourceBudgets budgets;

  /// Snapshot of the flow-input netlist; populated by the PassManager
  /// before the first pass when some pass needs_reference() (e.g. verify).
  std::optional<Netlist> reference;

 private:
  Netlist netlist_;
  DiagnosticsSink* sink_ = nullptr;
  std::string active_pass_ = "flow";
  std::map<std::string, std::int64_t> metrics_;
};

}  // namespace mcrt
