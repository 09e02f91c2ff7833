// Multiple-class retiming: the end-to-end flow (paper §5).
//
//   1. Build the mc-graph from the circuit.
//   2. Derive retiming bounds by maximal backward/forward retiming.
//   3. Modify the graph for register sharing (separation vertices).
//   4. Minimum-period retiming subject to the bounds -> phi_min.
//   5. Minimum-area retiming at phi_min.
//   6. Relocate registers, computing equivalent reset states (local BDD
//      justification, global fallback); on a justification failure, add a
//      retiming bound at the offending vertex and recompute (4)-(6). A
//      retry costs only its new work: the attempts share one
//      JustificationMemo (relocate.h), and mc_retime() lowers the graph to
//      a RetimeGraph once and tightens its bounds in place.
//
// The result is a new netlist plus the statistics reported in the paper's
// Table 2 (#Class, #Step moved/possible, justification counts, and a
// CPU-time breakdown across graph construction / retiming / implementation).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "base/timer.h"
#include "mcretime/maximal_retiming.h"
#include "mcretime/register_class.h"
#include "mcretime/relocate.h"
#include "netlist/netlist.h"
#include "retime/period_constraints.h"
#include "retime/retime_graph.h"

namespace mcrt {

struct McRetimeOptions {
  enum class Objective {
    kMinPeriod,         ///< step 4 only
    kMinAreaMinPeriod,  ///< steps 4 + 5 (the paper's "retime" command)
  };
  Objective objective = Objective::kMinAreaMinPeriod;
  /// 0 = minimize the period. A positive value retimes for minimum area at
  /// this target period instead (must be >= the minimum feasible period,
  /// else the flow falls back to the minimum).
  std::int64_t target_period = 0;
  ClassOptions class_options;
  /// §4.2 sharing modification on/off (ablation switch; on = paper flow).
  bool sharing_modification = true;
  /// Max retiming recomputations after justification failures.
  std::size_t max_attempts = 40;
  /// Variable budget for global justification (0 disables it: every local
  /// conflict immediately becomes a retiming bound + recompute; §5.2
  /// ablation).
  std::size_t global_justification_budget = 96;
  /// Cooperative cancellation: polled once per retiming attempt and inside
  /// the min-cost-flow solve; a stop request unwinds with CancelledError.
  const CancelToken* cancel = nullptr;
};

struct McRetimeStats {
  std::size_t num_classes = 0;       ///< Table 2 "#Class"
  std::size_t moved_layers = 0;      ///< Table 2 "#Step" first number
  std::size_t possible_steps = 0;    ///< Table 2 "#Step" second number
  std::size_t separators = 0;
  std::int64_t period_before = 0;
  std::int64_t period_after = 0;
  std::size_t registers_before = 0;
  std::size_t registers_after = 0;
  /// The minarea cost model's shared-register count for the final labels
  /// (compare with registers_after to measure model honesty; Fig. 4).
  std::int64_t register_estimate = 0;
  std::size_t attempts = 1;          ///< 1 = no recomputation needed
  /// Deterministic work counters of steps 4-5 over all attempts: all-pairs
  /// W/D sweeps (none for min-period, whose probes and retries run the
  /// bounded FEAS alone; one per period min-area optimizes, its constraints
  /// kept across relocation retries), feasibility probes (FEAS runs) with
  /// their rounds, difference-constraint relaxations (0: only the W/D
  /// reference solves by SPFA), and the min-cost-flow phases and
  /// augmenting paths of the min-area solves. retime_windowed() leaves
  /// them all 0.
  RetimeWorkCounters work;
  /// The last relocation's step and justification counts.
  RelocateStats relocate;
  /// Justifications answered from an earlier attempt's work (the
  /// JustificationMemo's local plus global reuses, over all attempts); 0
  /// when the first attempt succeeds.
  std::size_t justification_reuses = 0;
  /// Buckets: "graph" (steps 1-3), "retime" (4-5), "implement" (6).
  PhaseProfile profile;
};

struct McRetimeResult {
  bool success = false;
  std::string error;
  Netlist netlist;
  McRetimeStats stats;
};

/// Steps 1-3 factored out: the mc-graph, its §4.1 retiming bounds and (for
/// the min-area objective) the register-sharing modification. The windowed
/// driver (src/window/) prepares the same graph once, then partitions it
/// and solves per window — the bounds are per-vertex, so any sub-solve
/// honoring them composes into a legal global retiming.
struct McPrepared {
  McGraph graph;    ///< post-sharing mc-graph retiming is solved on
  McBounds bounds;  ///< per-vertex r_min/r_max, same vertex ids as `graph`
};

/// When `stats` is given, also fills its registers_before, num_classes,
/// possible_steps and separators.
McPrepared prepare_mc_graph(const Netlist& input,
                            const McRetimeOptions& options,
                            McRetimeStats* stats = nullptr);

/// The retiming bounds step 6 adds after justification failures (§5.2:
/// "set a retiming bound on the vertex where the conflict occurred"), in
/// global label space. Bounds only ever tighten.
class BoundOverlay {
 public:
  /// Bounds the failing vertex to the moves relocation achieved there: an
  /// upper bound after a failed backward move, a lower bound after a failed
  /// forward one. When the vertex already has a bound at least that tight
  /// no progress is possible: returns the "could not be bounded away" error
  /// and leaves the overlay unchanged. Empty on progress.
  std::string tighten(const RelocateResult& failure);
  /// Intersects `graph`'s bounds with the overlay.
  void apply(RetimeGraph& graph) const;

 private:
  std::map<std::uint32_t, std::int64_t> tightened_upper_;
  std::map<std::uint32_t, std::int64_t> tightened_lower_;
};

/// Recomputes `labels` under `overlay` after relocation failed at vertex
/// `failed`. Returns an error, empty on success.
using McResolve = std::function<std::string(
    const BoundOverlay& overlay, VertexId failed,
    std::vector<std::int64_t>& labels)>;

/// Step 6, shared by mc_retime() and retime_windowed(): relocates the
/// registers of `graph` for `labels`; on a failure tightens the overlay and
/// calls the driver's `resolve`, for at most options.max_attempts
/// relocations. On success rebuilds the netlist into `out` and fills
/// attempts, relocate, justification_reuses, moved_layers and
/// registers_after of `stats`.
/// Returns an error, empty on success.
std::string implement_retiming(const McGraph& graph, const Netlist& input,
                               const McRetimeOptions& options,
                               std::vector<std::int64_t>& labels,
                               const McResolve& resolve, McRetimeStats& stats,
                               Netlist& out);

McRetimeResult mc_retime(const Netlist& input,
                         const McRetimeOptions& options = {});

}  // namespace mcrt
