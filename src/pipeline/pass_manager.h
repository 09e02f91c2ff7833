// Pass registry and sequential pass pipeline.
//
// The PassManager is the flow engine shared by the CLI subcommands, the
// `mcrt flow` script runner and the bench harnesses: it runs a list of
// configured passes in order against one FlowContext, recording per-pass
// wall-clock time (base/timer.h PhaseProfile) and netlist-delta statistics,
// and optionally validating structural invariants and spot-checking
// sequential equivalence between each pass's input and output.
//
// The PassRegistry maps flow-script names ("sweep", "retime", ...) to pass
// factories; PassRegistry::standard() is preloaded with every built-in pass
// (see passes.h).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/timer.h"
#include "netlist/netlist.h"
#include "pipeline/pass.h"
#include "sim/equivalence.h"

namespace mcrt {

class PassRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Pass>()>;

  /// Returns false (and registers nothing) if `name` is already taken.
  bool register_pass(std::string name, Factory factory);
  /// A fresh, unconfigured pass instance; nullptr for an unknown name.
  [[nodiscard]] std::unique_ptr<Pass> create(const std::string& name) const;
  /// Registered names in sorted order (for help text and error messages).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Process-wide registry preloaded with the standard passes.
  static const PassRegistry& standard();

 private:
  std::map<std::string, Factory> factories_;
};

struct PassManagerOptions {
  /// Run Netlist::validate() after every pass. A non-empty problem list
  /// fails the flow; every problem is reported to the diagnostics sink.
  bool check_invariants = true;
  /// Simulation-equivalence spot check between each pass's input and
  /// output netlist (sim/equivalence.h). Catches miscompiling passes at
  /// the pass that broke the circuit instead of at the end of the flow;
  /// costs a netlist copy plus a few simulation runs per pass.
  bool check_equivalence = false;
  EquivalenceOptions equivalence;  ///< spot-check effort (runs, cycles, ...)
  /// Report each pass's one-line summary as a diagnostics note.
  bool verbose = false;
  /// Snapshot the netlist before each pass and restore it when the pass
  /// throws, reports failure, or violates an invariant, so a failing flow
  /// never leaves a half-mutated netlist behind. Costs one netlist copy per
  /// pass (shared with the equivalence spot check's snapshot).
  bool rollback_on_failure = true;
};

/// How a flow ended. kTimeout/kCancelled distinguish the two stop-request
/// causes of a CancelledError unwind; both imply success == false.
enum class FlowStatus : std::uint8_t { kOk, kFailed, kTimeout, kCancelled };

/// Record of one executed pass.
struct PassExecution {
  std::string name;
  double seconds = 0.0;
  bool success = false;
  std::string summary;
  bool rolled_back = false;  ///< netlist restored to the pre-pass snapshot
  Netlist::Stats before;  ///< netlist stats entering the pass
  Netlist::Stats after;   ///< netlist stats leaving the pass
};

struct FlowResult {
  bool success = true;
  FlowStatus status = FlowStatus::kOk;
  std::string error;  ///< first failure, formatted "pass: reason"
  /// Passes actually run, in order; ends at the first failing pass.
  std::vector<PassExecution> executed;
  /// Wall-clock per pass name (duplicate names accumulate), mergeable
  /// across circuits the way the bench harnesses aggregate CPU time.
  PhaseProfile profile;
};

/// The `--profile` table: one aligned row per executed pass (name,
/// seconds, LUT/FF deltas, summary) and a total row.
[[nodiscard]] std::string format_profile(
    const std::vector<PassExecution>& executed);

class PassManager {
 public:
  explicit PassManager(PassManagerOptions options = {})
      : options_(std::move(options)) {}
  PassManager(PassManager&&) = default;
  PassManager& operator=(PassManager&&) = default;

  /// Appends a configured pass to the pipeline.
  void add(std::unique_ptr<Pass> pass);
  [[nodiscard]] std::size_t size() const noexcept { return passes_.size(); }
  [[nodiscard]] const std::vector<std::unique_ptr<Pass>>& passes()
      const noexcept {
    return passes_;
  }
  [[nodiscard]] const PassManagerOptions& options() const noexcept {
    return options_;
  }

  /// Runs every pass in order against `context`. Stops at the first
  /// failure: a failing pass, a violated invariant, or a failed
  /// equivalence spot check.
  FlowResult run(FlowContext& context) const;

 private:
  PassManagerOptions options_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace mcrt
