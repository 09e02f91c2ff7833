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
// Quality is recovered in two sweeps: one boundary-refinement round
// re-partitions with a rotated seed on the reweighted graph (windows now
// straddle the previous cuts) and keeps its delta only when the *global*
// period improves; under the min-area objective, per-window min-area then
// reduces registers at the achieved period, again accepted only if the
// global period holds.
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

#include <string>

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
};

struct WindowedRetimeStats {
  std::size_t windows = 0;
  std::size_t cut_edges = 0;
  std::size_t refine_accepted = 0;   ///< 1 when the refinement improved phi
  std::size_t window_resolves = 0;   ///< single-window justification retries
  std::size_t global_fallbacks = 0;  ///< retries escalated to full graph
};

struct WindowedRetimeResult {
  bool success = false;
  std::string error;
  Netlist netlist;
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
