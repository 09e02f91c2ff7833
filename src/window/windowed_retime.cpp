#include "window/windowed_retime.h"

#include <algorithm>

#include "base/thread_pool.h"
#include "mcretime/lower.h"
#include "retime/minarea.h"
#include "retime/minperiod.h"
#include "window/extract.h"

namespace mcrt {
namespace {

std::int64_t shift_lower(std::int64_t bound, std::int64_t r) {
  return bound <= -RetimeGraph::kNoBound ? bound : bound - r;
}
std::int64_t shift_upper(std::int64_t bound, std::int64_t r) {
  return bound >= RetimeGraph::kNoBound ? bound : bound - r;
}

/// Copy of `global` with `r` applied to the weights and the bounds of
/// `bounded` (`global` or a copy with tighter bounds, which `r` may
/// violate) moved into delta space: a local label d stands for the global
/// label r[v] + d.
RetimeGraph reweighted(const RetimeGraph& global,
                       const std::vector<std::int64_t>& r,
                       const RetimeGraph& bounded) {
  RetimeGraph g = global;
  g.apply(r);
  for (std::size_t v = 1; v < g.vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    g.set_bounds(vid, shift_lower(bounded.lower_bound(vid), r[v]),
                 shift_upper(bounded.upper_bound(vid), r[v]));
  }
  return g;
}

}  // namespace

WindowedRetimeResult retime_windowed(const Netlist& input,
                                     const WindowedRetimeOptions& options) {
  WindowedRetimeResult result;
  McRetimeStats& stats = result.stats;
  WindowedRetimeStats& wstats = result.window_stats;

  // --- Steps 1-3 (shared with the monolithic flow) -------------------------
  McGraph mcg;
  McBounds bounds;
  {
    ScopedPhase phase(stats.profile, "graph");
    McPrepared prepared = prepare_mc_graph(input, options.base, &stats);
    mcg = std::move(prepared.graph);
    bounds = std::move(prepared.bounds);
  }
  const RetimeGraph global = lower_to_retime_graph(mcg, bounds);
  stats.period_before = global.period();
  const std::size_t n = global.vertex_count();

  ThreadPool pool(options.jobs);

  // --- Partition -----------------------------------------------------------
  WindowPartition part;
  {
    ScopedPhase phase(stats.profile, "partition");
    part = partition_mc_graph(mcg, options.partition);
  }
  wstats.windows = part.window_count();
  wstats.cut_edges = part.cut_edges;

  // Runs one parallel sweep over `sweep_part`'s windows of `g` (a graph in
  // delta space), accumulating per-window labels into `delta` (disjoint
  // slices, so concurrent writes are race-free). Infeasible windows keep
  // delta = 0, which `g`'s bounds admit outside retries.
  const auto run_windows = [&](const RetimeGraph& g,
                               const WindowPartition& sweep_part,
                               std::vector<std::int64_t>& delta,
                               bool minarea_mode, std::int64_t phi_target) {
    const BoundaryTiming timing = compute_boundary_timing(g);
    TaskGroup group(pool);
    for (std::size_t w = 0; w < sweep_part.window_count(); ++w) {
      group.run([&, w] {
        const WindowProblem prob = extract_window(g, sweep_part, w, timing);
        if (minarea_mode) {
          // The proxy approximation can push the local period above the
          // global target; relaxing to the local current period keeps the
          // solve feasible (delta 0 qualifies) and the global acceptance
          // check below still gates on the real phi.
          const std::int64_t phi_local =
              std::max(phi_target, prob.graph.period());
          const MinAreaResult ma = minarea_retime(prob.graph, phi_local,
                                                  nullptr, options.base.cancel);
          if (ma.feasible && prob.graph.check_legal(ma.r).empty()) {
            stitch_window_labels(prob, ma.r, delta);
          }
        } else if (const RetimeSolution sol = minperiod_retime(
                       prob.graph, FeasImpl::kCsr, options.base.cancel);
                   sol.feasible) {
          stitch_window_labels(prob, sol.r, delta);
        }
      });
    }
    group.wait();
  };

  // --- Stage 1: independent window solves ----------------------------------
  std::vector<std::int64_t> labels(n, 0);
  std::int64_t phi = stats.period_before;
  {
    ScopedPhase phase(stats.profile, "retime");
    run_windows(global, part, labels, /*minarea_mode=*/false, 0);
    const std::string legal = global.check_legal(labels);
    if (!legal.empty()) {
      result.error = "windowed retiming produced illegal labels: " + legal;
      return result;
    }
    phi = global.period(labels);

    // --- Boundary refinement: shifted windows over the reweighted graph ---
    {
      poll_cancel(options.base.cancel);
      const RetimeGraph rg = reweighted(global, labels, global);
      PartitionOptions shifted = options.partition;
      shifted.seed = options.partition.seed + 1;
      const WindowPartition repart = partition_mc_graph(mcg, shifted);
      std::vector<std::int64_t> delta(n, 0);
      run_windows(rg, repart, delta, /*minarea_mode=*/false, 0);
      std::vector<std::int64_t> candidate = labels;
      for (std::size_t v = 0; v < n; ++v) candidate[v] += delta[v];
      if (global.check_legal(candidate).empty()) {
        const std::int64_t refined = global.period(candidate);
        if (refined < phi) {
          labels = std::move(candidate);
          phi = refined;
          ++wstats.refine_accepted;
        }
      }
    }

    // --- Per-window min-area at the achieved period ------------------------
    if (options.base.objective ==
        McRetimeOptions::Objective::kMinAreaMinPeriod &&
        part.window_count() > 0) {
      poll_cancel(options.base.cancel);
      const RetimeGraph rg = reweighted(global, labels, global);
      std::vector<std::int64_t> delta(n, 0);
      run_windows(rg, part, delta, /*minarea_mode=*/true, phi);
      std::vector<std::int64_t> candidate = labels;
      for (std::size_t v = 0; v < n; ++v) candidate[v] += delta[v];
      if (global.check_legal(candidate).empty() &&
          global.period(candidate) <= phi &&
          global.shared_register_area(candidate) <
              global.shared_register_area(labels)) {
        labels = std::move(candidate);
      }
    }
  }
  stats.period_after = phi;

  // --- Implement, with windowed justification-failure retries --------------
  // Re-solves only the window owning the failing vertex, in delta space
  // under the overlay; escalates to a full-graph re-solve when the window
  // alone cannot absorb the new bound (overlays admit the global label 0,
  // so the full problem is always feasible).
  const McResolve resolve = [&](const BoundOverlay& overlay, VertexId failed,
                                std::vector<std::int64_t>& labels) {
    RetimeGraph bounded = global;
    overlay.apply(bounded);
    bool resolved = false;
    const std::uint32_t w = part.window_of[failed.value()];
    if (w != WindowPartition::kUnassigned) {
      const RetimeGraph rg = reweighted(global, labels, bounded);
      const BoundaryTiming timing = compute_boundary_timing(rg);
      const WindowProblem prob = extract_window(rg, part, w, timing);
      // The bounds may exclude delta 0: minperiod_retime then searches
      // above the current period too, or reports the window infeasible.
      const RetimeSolution sol =
          minperiod_retime(prob.graph, FeasImpl::kCsr, options.base.cancel);
      if (sol.feasible) {
        std::vector<std::int64_t> delta(n, 0);
        stitch_window_labels(prob, sol.r, delta);
        std::vector<std::int64_t> candidate = labels;
        for (std::size_t i = 0; i < n; ++i) candidate[i] += delta[i];
        if (global.check_legal(candidate).empty()) {
          labels = std::move(candidate);
          resolved = true;
          ++wstats.window_resolves;
        }
      }
    }
    if (!resolved) {
      ++wstats.global_fallbacks;
      const RetimeSolution sol =
          minperiod_retime(bounded, FeasImpl::kCsr, options.base.cancel);
      if (!sol.feasible) {
        return std::string("windowed retiming: global fallback infeasible");
      }
      labels = sol.r;
    }
    stats.period_after = global.period(labels);
    return std::string();
  };
  result.error = implement_retiming(mcg, input, options.base, labels, resolve,
                                    stats, result.netlist);
  if (!result.error.empty()) return result;
  stats.register_estimate = global.shared_register_area(labels);
  result.labels = std::move(labels);
  result.success = true;
  return result;
}

}  // namespace mcrt
