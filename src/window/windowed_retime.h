// Windowed multiple-class retiming: partition, solve per window in
// parallel, stitch, refine (docs/WINDOWING.md).
//
// The windowed flow prepares the same mc-graph and §4.1 bounds once, lowers
// to the bounded basic retiming graph, partitions the movable vertices
// into bounded-size windows (partition.h), and solves each window as an
// independent bounded minperiod problem with its boundary frozen at
// r = 0 (extract.h). Because the bounds are per-vertex, the stitched
// labels are a legal multiple-class retiming by construction; the flow
// still re-checks legality and re-measures the period on the full graph
// before trusting them.
//
// Quality is recovered in two optional sweeps: boundary refinement
// re-partitions with rotated seeds on the reweighted graph (windows now
// straddle the previous cuts) and keeps a round's delta only when the
// *global* period improves; per-window min-area then reduces registers at
// the achieved period, again accepted only if the global period holds.
//
// Implementation (register relocation with reset-state justification and
// its retry loop, implement_retiming() in mcretime/mc_retime.h) is shared
// with the monolithic flow; a justification failure tightens the bound at
// the offending vertex and this driver's re-solve works on only the window
// that owns it, falling back to a full-graph re-solve if the window alone
// cannot absorb the new bound. The window is solved in delta space, where
// the tightened bound can exclude 0; minperiod_retime() then searches
// above the current period too, or reports the window infeasible.
#pragma once

#include <functional>
#include <string>

#include "base/thread_pool.h"
#include "mcretime/mc_retime.h"
#include "window/partition.h"

namespace mcrt {

struct WindowedRetimeOptions {
  /// Objective, class options, sharing, cancellation, relocation budgets —
  /// the same knobs as the monolithic flow.
  McRetimeOptions base;
  PartitionOptions partition;
  /// Worker threads for the per-window solves; 0 = one per hardware
  /// thread. Results are deterministic in `jobs` (windows write disjoint
  /// label slices; stitching order is fixed).
  std::size_t jobs = 0;
  /// Optional external pool (bulk flows share one); owns its own when null.
  ThreadPool* pool = nullptr;
  /// Boundary-refinement sweeps after the first stitch. Each re-partitions
  /// with a rotated seed and keeps its delta only on global improvement.
  std::size_t refine_rounds = 1;
  /// Per-window wall-clock cap in seconds; 0 = none. A timed-out window
  /// falls back to r = 0 (always legal) and is counted in the stats.
  double window_timeout_seconds = 0.0;
  /// Progress callback (may be empty): one line per stage, suitable for a
  /// diagnostics sink. Called from the coordinating thread only.
  std::function<void(const std::string&)> progress;
  /// Stop after the label solve (stage 1, refinement, min-area sweep):
  /// `labels` and the solve-side stats are filled but relocation and the
  /// netlist rebuild are skipped. Benches use this to compare the solver
  /// against the monolithic one without the shared implementation cost.
  bool solve_only = false;
};

struct WindowedRetimeStats {
  std::size_t windows = 0;
  std::size_t cut_edges = 0;
  std::size_t cut_registers = 0;
  std::size_t split_class_edges = 0;
  std::size_t window_timeouts = 0;
  std::size_t refine_rounds_run = 0;
  std::size_t refine_accepted = 0;   ///< rounds whose delta improved phi
  bool minarea_applied = false;      ///< min-area sweep kept (phi held)
  std::size_t window_resolves = 0;   ///< single-window justification retries
  std::size_t global_fallbacks = 0;  ///< retries escalated to full graph
};

struct WindowedRetimeResult {
  bool success = false;
  std::string error;
  Netlist netlist;  ///< empty when options.solve_only is set
  /// Final per-vertex labels on the lowered global graph (index = mc-graph
  /// vertex id, [0] = host). Legal by construction; callers can re-check
  /// with lower_to_retime_graph(...).check_legal(labels).
  std::vector<std::int64_t> labels;
  /// Same shape as the monolithic flow's stats, for differential reporting
  /// (period_before/after, classes, steps, relocation, phase profile with
  /// buckets "graph" / "partition" / "retime" / "implement").
  McRetimeStats stats;
  WindowedRetimeStats window_stats;
};

WindowedRetimeResult retime_windowed(const Netlist& input,
                                     const WindowedRetimeOptions& options);

}  // namespace mcrt
