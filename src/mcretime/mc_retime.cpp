#include "mcretime/mc_retime.h"

#include <algorithm>

#include "mcretime/lower.h"
#include "mcretime/maximal_retiming.h"
#include "mcretime/mcgraph.h"
#include "mcretime/rebuild.h"
#include "mcretime/sharing.h"
#include "retime/minarea.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"

namespace mcrt {

McPrepared prepare_mc_graph(const Netlist& input,
                            const McRetimeOptions& options,
                            McRetimeStats* stats) {
  McPrepared prepared;
  prepared.graph = build_mc_graph(input, options.class_options);
  auto maximal = compute_mc_bounds(prepared.graph);
  prepared.bounds = std::move(maximal.bounds);
  if (stats != nullptr) {
    stats->registers_before = input.register_count();
    stats->num_classes = prepared.graph.classes().class_count();
    stats->possible_steps = prepared.bounds.possible_steps;
  }
  if (options.sharing_modification &&
      options.objective == McRetimeOptions::Objective::kMinAreaMinPeriod) {
    auto modified = apply_sharing_modification(prepared.graph, prepared.bounds,
                                               maximal.backward_graph);
    prepared.graph = std::move(modified.graph);
    prepared.bounds = std::move(modified.bounds);
    if (stats != nullptr) stats->separators = modified.separators_inserted;
  }
  return prepared;
}

std::string BoundOverlay::tighten(const RelocateResult& failure) {
  const bool backward = failure.failed_backward;
  auto& tightened = backward ? tightened_upper_ : tightened_lower_;
  const std::uint32_t v = failure.failed_vertex.value();
  const auto it = tightened.find(v);
  if (it != tightened.end() && (backward ? it->second <= failure.achieved
                                         : it->second >= failure.achieved)) {
    return std::string(backward ? "justification" : "scheduling") +
           " failure could not be bounded away: " + failure.failure_reason;
  }
  tightened[v] = failure.achieved;
  return {};
}

void BoundOverlay::apply(RetimeGraph& graph) const {
  for (const auto& [v, upper] : tightened_upper_) {
    const VertexId id{v};
    graph.set_bounds(id, graph.lower_bound(id),
                     std::min(upper, graph.upper_bound(id)));
  }
  for (const auto& [v, lower] : tightened_lower_) {
    const VertexId id{v};
    graph.set_bounds(id, std::max(lower, graph.lower_bound(id)),
                     graph.upper_bound(id));
  }
}

std::string implement_retiming(const McGraph& graph, const Netlist& input,
                               const McRetimeOptions& options,
                               std::vector<std::int64_t>& labels,
                               const McResolve& resolve, McRetimeStats& stats,
                               Netlist& out) {
  BoundOverlay overlay;
  McGraph relocated;
  bool implemented = false;
  for (std::size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    poll_cancel(options.cancel);
    stats.attempts = attempt + 1;
    RelocateResult relocation;
    {
      ScopedPhase phase(stats.profile, "implement");
      relocated = graph;
      relocation = relocate_registers(relocated, input, labels,
                                      options.global_justification_budget);
      stats.relocate = relocation.stats;
    }
    if (relocation.success) {
      implemented = true;
      break;
    }
    if (std::string error = overlay.tighten(relocation); !error.empty()) {
      return error;
    }
    if (attempt + 1 == options.max_attempts) break;
    ScopedPhase phase(stats.profile, "retime");
    if (std::string error = resolve(overlay, relocation.failed_vertex, labels);
        !error.empty()) {
      return error;
    }
  }
  if (!implemented) return "relocation failed after max attempts";

  // Moved layers = sum |r(v)| over movable vertices (gates only; separator
  // hops are bookkeeping, not circuit moves).
  for (std::size_t v = 1; v < graph.vertex_count(); ++v) {
    if (graph.kind(VertexId{static_cast<std::uint32_t>(v)}) ==
        McVertexKind::kGate) {
      stats.moved_layers += static_cast<std::size_t>(std::abs(labels[v]));
    }
  }
  ScopedPhase phase(stats.profile, "implement");
  out = rebuild_netlist(relocated, input);
  stats.registers_after = out.register_count();
  return {};
}

McRetimeResult mc_retime(const Netlist& input, const McRetimeOptions& options) {
  McRetimeResult result;
  McRetimeStats& stats = result.stats;

  // --- Steps 1-3: mc-graph, bounds, sharing modification -------------------
  McGraph graph;
  McBounds bounds;
  {
    ScopedPhase phase(stats.profile, "graph");
    McPrepared prepared = prepare_mc_graph(input, options, &stats);
    graph = std::move(prepared.graph);
    bounds = std::move(prepared.bounds);
  }

  // --- Steps 4-5 under the bounds added so far -----------------------------
  // Across justification-failure retries the target period usually stays
  // valid: keep it (and its period-constraint set, which min-area reuses)
  // unless the new bound makes it infeasible. Retries only tighten bounds,
  // so one W/D sweep (and one unbounded FEAS optimum, its lower end)
  // serves every attempt: the table re-prunes under the current bounds.
  std::int64_t phi = -1;
  std::vector<DifferenceConstraint> period_constraints;
  PeriodConstraintTable table;
  const RetimeWorkCounters work_before = retime_work_counters();
  const McResolve solve = [&](const BoundOverlay& overlay, VertexId,
                              std::vector<std::int64_t>& labels) {
    RetimeGraph basic = lower_to_retime_graph(graph, bounds);
    overlay.apply(basic);
    stats.period_before = basic.period();
    bool have_labels = false;
    if (phi < 0 && options.target_period > 0) {
      // Try the requested target first; fall back to minimization if it
      // is below the minimum feasible period (below the unbounded
      // optimum, the table's lower end, it certainly is).
      if (!table.built()) {
        table.build(basic, unbounded_min_period(basic, options.cancel),
                    std::max(stats.period_before, options.target_period),
                    options.cancel);
      }
      if (table.covers(options.target_period)) {
        std::vector<DifferenceConstraint> target_constraints;
        table.append(basic, options.target_period, target_constraints);
        if (auto r = bounded_feasible(basic, options.target_period,
                                      &target_constraints)) {
          labels = std::move(*r);
          phi = options.target_period;
          period_constraints = std::move(target_constraints);
          have_labels = true;
        }
      }
    }
    if (!have_labels && phi >= 0) {
      if (auto r = bounded_feasible(basic, phi, &period_constraints)) {
        labels = std::move(*r);
        have_labels = true;
      }
    }
    if (!have_labels) {
      const RetimeSolution minperiod =
          minperiod_retime(basic, FeasImpl::kCsr, options.cancel, &table);
      if (!minperiod.feasible) {
        return std::string("minperiod retiming infeasible");
      }
      labels = minperiod.r;
      phi = minperiod.period;
      period_constraints.clear();
      table.append(basic, phi, period_constraints);
    }
    stats.wd_sweeps = retime_work_counters().wd_sweeps - work_before.wd_sweeps;
    stats.feas_probes =
        retime_work_counters().feas_probes - work_before.feas_probes;
    stats.period_after = phi;
    if (options.objective == McRetimeOptions::Objective::kMinAreaMinPeriod) {
      const MinAreaResult minarea =
          minarea_retime(basic, phi, &period_constraints, options.cancel);
      // Infeasible minarea (should not happen) falls back to the feasible
      // labels computed above.
      if (minarea.feasible) labels = minarea.r;
    }
    stats.register_estimate = basic.shared_register_area(labels);
    return std::string();
  };

  std::vector<std::int64_t> labels;
  poll_cancel(options.cancel);
  {
    ScopedPhase phase(stats.profile, "retime");
    result.error = solve(BoundOverlay(), VertexId(), labels);
  }
  // --- Step 6: implement, bounding away justification failures ------------
  if (result.error.empty()) {
    result.error = implement_retiming(graph, input, options, labels, solve,
                                      stats, result.netlist);
  }
  result.success = result.error.empty();
  return result;
}

}  // namespace mcrt
