#include "retime/minperiod.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace mcrt {
namespace {

/// Do the bounds admit the all-zero labeling (the current circuit)?
bool bounds_admit_zero(const RetimeGraph& graph) {
  for (std::size_t v = 1; v < graph.vertex_count(); ++v) {
    const VertexId id{static_cast<std::uint32_t>(v)};
    if (graph.lower_bound(id) > 0 || graph.upper_bound(id) < 0) return false;
  }
  return true;
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
    generate_period_constraints_unpruned(graph, phi, constraints, cancel);
  }
  // The least solution >= 0 is minus the greatest solution <= 0 of the
  // reversed system (q = -r turns r(u) - r(v) <= b into q(v) - q(u) <= b).
  for (auto& c : constraints) std::swap(c.u, c.v);
  ++retime_work_counters().feas_probes;
  auto r = solve_difference_constraints(
      graph.vertex_count(), constraints,
      &retime_work_counters().dc_relaxations);
  if (!r) return std::nullopt;
  const std::int64_t base = (*r)[graph.host().index()];
  for (auto& value : *r) value = base - value;
  // Defensive: the labels must actually realize phi (guards against any
  // constraint-generation gap turning into silent wrong answers).
  if (graph.period(*r) > phi) return std::nullopt;
  return r;
}

RetimeSolution minperiod_retime(const RetimeGraph& graph, FeasImpl /*impl*/,
                                const CancelToken* cancel) {
  // Every path delay is a sum of vertex delays, hence a multiple of g, at
  // least the largest single delay and at most the sum of all delays (a
  // zero-weight path of a legal retiming is simple).
  std::int64_t g = 0;
  std::int64_t max_delay = 0;
  std::int64_t total_delay = 0;
  for (const std::int64_t d : graph.delays()) {
    g = std::gcd(g, d);
    max_delay = std::max(max_delay, d);
    total_delay += d;
  }
  RetimeSolution result;
  if (bounds_admit_zero(graph)) {
    // r = 0 achieves the current period.
    result.feasible = true;
    result.period = graph.period();
    result.r.assign(graph.vertex_count(), 0);
    if (g == 0 || result.period <= max_delay) return result;
  } else {
    // Every legal labeling achieves the sum of the delays, so the bounds
    // are satisfiable iff that period is feasible.
    poll_cancel(cancel);
    auto r = feas_check(graph, total_delay);
    if (!r) return result;
    result.feasible = true;
    result.period = total_delay;
    result.r = std::move(*r);
    if (g == 0) return result;
  }
  std::int64_t a = max_delay / g;  // multiples a*g .. b*g, b*g feasible
  std::int64_t b = result.period / g;
  while (a < b) {
    poll_cancel(cancel);
    const std::int64_t mid = a + (b - a) / 2;
    if (auto r = feas_check(graph, mid * g)) {
      result.r = std::move(*r);
      result.period = mid * g;
      b = mid;
    } else {
      a = mid + 1;
    }
  }
  return result;
}

}  // namespace mcrt
