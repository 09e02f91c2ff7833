#include "retime/minperiod.h"

#include <algorithm>
#include <numeric>

namespace mcrt {

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
  ++retime_work_counters().feas_probes;
  auto r = solve_difference_constraints(
      graph.vertex_count(), constraints,
      &retime_work_counters().dc_relaxations);
  if (!r) return std::nullopt;
  const std::int64_t base = (*r)[graph.host().index()];
  for (auto& value : *r) value -= base;
  // Defensive: the labels must actually realize phi (guards against any
  // constraint-generation gap turning into silent wrong answers).
  if (graph.period(*r) > phi) return std::nullopt;
  return r;
}

RetimeSolution minperiod_retime(const RetimeGraph& graph, FeasImpl /*impl*/,
                                const CancelToken* cancel) {
  RetimeSolution result;
  result.feasible = true;
  result.period = graph.period();
  result.r.assign(graph.vertex_count(), 0);
  // Every path delay is a sum of vertex delays, hence a multiple of g, and
  // at least the largest single delay; the current period is achievable.
  std::int64_t g = 0;
  std::int64_t max_delay = 0;
  for (const std::int64_t d : graph.delays()) {
    g = std::gcd(g, d);
    max_delay = std::max(max_delay, d);
  }
  if (g == 0 || result.period <= max_delay) return result;
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
