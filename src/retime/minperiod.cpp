#include "retime/minperiod.h"

#include <algorithm>
#include <numeric>

namespace mcrt {
namespace {

std::vector<std::int64_t> normalize_to_host(std::vector<std::int64_t> r,
                                            const RetimeGraph& graph) {
  const std::int64_t base = r[graph.host().index()];
  if (base != 0) {
    for (auto& value : r) value -= base;
  }
  return r;
}

/// Solves circuit + bound constraints (already at the front of
/// `constraints`) plus the period constraints behind them.
std::optional<std::vector<std::int64_t>> solve_at(
    const RetimeGraph& graph, std::int64_t phi,
    const std::vector<DifferenceConstraint>& constraints) {
  ++retime_work_counters().feas_probes;
  auto solution = solve_difference_constraints(
      graph.vertex_count(), constraints,
      &retime_work_counters().dc_relaxations);
  if (!solution) return std::nullopt;
  auto r = normalize_to_host(std::move(*solution), graph);
  // Defensive: the labels must actually realize phi (guards against any
  // constraint-generation gap turning into silent wrong answers).
  if (graph.period(r) > phi) return std::nullopt;
  return r;
}

/// One FEAS probe, counted.
std::optional<std::vector<std::int64_t>> feas_probe(const RetimeGraph& graph,
                                                    std::int64_t phi) {
  ++retime_work_counters().feas_probes;
  return feas_check(graph, phi);
}

}  // namespace

std::optional<std::vector<std::int64_t>> bounded_feasible(
    const RetimeGraph& graph, std::int64_t phi,
    const std::vector<DifferenceConstraint>* cached_period_constraints,
    const CancelToken* cancel) {
  std::vector<DifferenceConstraint> constraints;
  generate_circuit_constraints(graph, constraints);
  if (cached_period_constraints) {
    constraints.insert(constraints.end(), cached_period_constraints->begin(),
                       cached_period_constraints->end());
  } else {
    generate_period_constraints(graph, phi, constraints, cancel);
  }
  return solve_at(graph, phi, constraints);
}

std::int64_t unbounded_min_period(const RetimeGraph& graph,
                                  const CancelToken* cancel) {
  // Every path delay is a sum of vertex delays, hence a multiple of g, and
  // at least the largest single delay; the current period is achievable.
  std::int64_t g = 0;
  std::int64_t max_delay = 0;
  for (const std::int64_t d : graph.delays()) {
    g = std::gcd(g, d);
    max_delay = std::max(max_delay, d);
  }
  const std::int64_t current = graph.period();
  if (g == 0 || current <= max_delay) return current;
  std::int64_t a = max_delay / g;  // multiples a*g .. b*g, b*g feasible
  std::int64_t b = current / g;
  while (a < b) {
    poll_cancel(cancel);
    const std::int64_t mid = a + (b - a) / 2;
    if (feas_probe(graph, mid * g)) {
      b = mid;
    } else {
      a = mid + 1;
    }
  }
  return a * g;
}

RetimeSolution minperiod_retime(const RetimeGraph& graph, FeasImpl /*impl*/,
                                const CancelToken* cancel,
                                PeriodConstraintTable* table) {
  RetimeSolution result;
  result.feasible = true;
  result.period = graph.period();
  result.r.assign(graph.vertex_count(), 0);
  const std::int64_t current = result.period;

  if (!graph.has_bounds()) {
    const std::int64_t best = unbounded_min_period(graph, cancel);
    if (best < current) {
      if (auto r = feas_probe(graph, best)) {
        result.r = normalize_to_host(std::move(*r), graph);
        result.period = best;
      }
    }
    return result;
  }

  // Phase 2: bounded search over the path delays in [unbounded optimum,
  // current period); the current period is feasible with r = 0 under
  // bounds (bounds admit 0 by construction).
  PeriodConstraintTable local;
  if (table == nullptr) table = &local;
  if (!table->covers(current)) {
    table->build(graph, unbounded_min_period(graph, cancel), current, cancel);
  }
  const std::vector<std::int64_t>& candidates = table->candidates();
  std::size_t a = 0;
  std::size_t b = static_cast<std::size_t>(
      std::lower_bound(candidates.begin(), candidates.end(), current) -
      candidates.begin());
  std::vector<DifferenceConstraint> circuit;
  generate_circuit_constraints(graph, circuit);
  std::vector<DifferenceConstraint> constraints;
  while (a < b) {
    poll_cancel(cancel);
    const std::size_t mid = a + (b - a) / 2;
    constraints = circuit;
    table->append(graph, candidates[mid], constraints);
    if (auto r = solve_at(graph, candidates[mid], constraints)) {
      result.r = std::move(*r);
      result.period = candidates[mid];
      b = mid;
    } else {
      a = mid + 1;
    }
  }
  return result;
}

}  // namespace mcrt
