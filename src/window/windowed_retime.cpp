#include "window/windowed_retime.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "mcretime/lower.h"
#include "retime/minarea.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"
#include "window/extract.h"

namespace mcrt {
namespace {

/// Solves one window for minimum period. Robust to bounds that exclude
/// r = 0 (delta-space justification retries tighten past the current
/// label): when minperiod's fallback labeling is illegal under the
/// bounds, walk the candidate periods upward — any achievable period is
/// an exact path delay, so the scan is exhaustive. nullopt = the window
/// alone cannot satisfy its bounds (caller escalates).
std::optional<std::vector<std::int64_t>> solve_window(
    const RetimeGraph& local, const CancelToken* cancel) {
  const RetimeSolution sol = minperiod_retime(local, FeasImpl::kCsr, cancel);
  if (!sol.feasible) return std::nullopt;
  if (local.check_legal(sol.r).empty()) return sol.r;
  for (const std::int64_t phi : candidate_periods(local, cancel)) {
    if (phi < sol.period) continue;
    if (auto r = bounded_feasible(local, phi, nullptr, cancel)) return r;
  }
  return std::nullopt;
}

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
  const auto say = [&](const std::string& line) {
    if (options.progress) options.progress(line);
  };

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

  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<ThreadPool>(options.jobs);
    pool = owned_pool.get();
  }

  // --- Partition -----------------------------------------------------------
  WindowPartition part;
  {
    ScopedPhase phase(stats.profile, "partition");
    part = partition_mc_graph(mcg, options.partition);
  }
  wstats.windows = part.window_count();
  wstats.cut_edges = part.cut_edges;
  wstats.cut_registers = part.cut_registers;
  wstats.split_class_edges = part.split_class_edges;
  say("windows: " + std::to_string(part.window_count()) + " (cut edges " +
      std::to_string(part.cut_edges) + ", cut registers " +
      std::to_string(part.cut_registers) + ", split-class edges " +
      std::to_string(part.split_class_edges) + ")");

  // Runs one parallel sweep over `sweep_part`'s windows of `g` (a graph in
  // delta space), accumulating per-window labels into `delta` (disjoint
  // slices, so concurrent writes are race-free). Timed-out or infeasible
  // windows keep delta = 0, which `g`'s bounds admit outside retries.
  std::atomic<std::size_t> stage_timeouts{0};
  const auto run_windows = [&](const RetimeGraph& g,
                               const WindowPartition& sweep_part,
                               std::vector<std::int64_t>& delta,
                               bool minarea_mode, std::int64_t phi_target) {
    const BoundaryTiming timing = compute_boundary_timing(g);
    TaskGroup group(*pool);
    for (std::size_t w = 0; w < sweep_part.window_count(); ++w) {
      group.run([&, w] {
        CancelToken token(options.base.cancel);
        if (options.window_timeout_seconds > 0) {
          token.set_timeout(options.window_timeout_seconds);
        }
        try {
          const WindowProblem prob = extract_window(g, sweep_part, w, timing);
          if (minarea_mode) {
            // The proxy approximation can push the local period above the
            // global target; relaxing to the local current period keeps
            // the solve feasible (delta 0 qualifies) and the global
            // acceptance check below still gates on the real phi.
            const std::int64_t phi_local =
                std::max(phi_target, prob.graph.period());
            const MinAreaResult ma =
                minarea_retime(prob.graph, phi_local, nullptr, &token);
            if (ma.feasible && prob.graph.check_legal(ma.r).empty()) {
              stitch_window_labels(prob, ma.r, delta);
            }
          } else if (auto r = solve_window(prob.graph, &token)) {
            stitch_window_labels(prob, *r, delta);
          }
        } catch (const CancelledError&) {
          // A per-window deadline degrades that window to delta = 0; an
          // outer cancellation aborts the whole flow.
          if (cancel_requested(options.base.cancel) != StopReason::kNone) {
            throw;
          }
          stage_timeouts.fetch_add(1, std::memory_order_relaxed);
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
    say("stage 1: period " + std::to_string(stats.period_before) + " -> " +
        std::to_string(phi));

    // --- Boundary refinement: shifted windows over the reweighted graph ---
    for (std::size_t round = 1; round <= options.refine_rounds; ++round) {
      poll_cancel(options.base.cancel);
      ++wstats.refine_rounds_run;
      const RetimeGraph rg = reweighted(global, labels, global);
      PartitionOptions shifted = options.partition;
      shifted.seed = options.partition.seed + round;
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
      say("refine round " + std::to_string(round) + ": period " +
          std::to_string(phi));
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
        wstats.minarea_applied = true;
      }
      say(std::string("min-area sweep: ") +
          (wstats.minarea_applied ? "applied" : "kept prior labels"));
    }
  }
  wstats.window_timeouts = stage_timeouts.load(std::memory_order_relaxed);
  stats.period_after = phi;
  if (options.solve_only) {
    result.labels = std::move(labels);
    stats.register_estimate = global.shared_register_area(result.labels);
    result.success = true;
    return result;
  }

  // --- Implement, with windowed justification-failure retries --------------
  // Re-solves only the window owning the failing vertex, in delta space
  // under the overlay; escalates to a full-graph re-solve when the window
  // alone cannot absorb the new bound (overlays admit the global label 0,
  // so the full problem is always feasible). Global fallbacks re-solve
  // under ever tighter overlays: one W/D sweep serves them all.
  PeriodConstraintTable fallback_table;
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
      if (auto r = solve_window(prob.graph, options.base.cancel)) {
        std::vector<std::int64_t> delta(n, 0);
        stitch_window_labels(prob, *r, delta);
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
      const RetimeSolution sol = minperiod_retime(
          bounded, FeasImpl::kCsr, options.base.cancel, &fallback_table);
      if (!sol.feasible || !bounded.check_legal(sol.r).empty()) {
        return std::string("windowed retiming: global fallback infeasible");
      }
      labels = sol.r;
    }
    stats.period_after = global.period(labels);
    say("retry " + std::to_string(stats.attempts) + ": period " +
        std::to_string(stats.period_after));
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
