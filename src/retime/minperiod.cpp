#include "retime/minperiod.h"

#include <algorithm>

#include "retime/period_constraints.h"

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
  auto solution =
      solve_difference_constraints(graph.vertex_count(), constraints);
  if (!solution) return std::nullopt;
  auto r = normalize_to_host(std::move(*solution), graph);
  // Defensive: the labels must actually realize phi (guards against any
  // constraint-generation gap turning into silent wrong answers).
  if (graph.period(r) > phi) return std::nullopt;
  return r;
}

RetimeSolution minperiod_retime(const RetimeGraph& graph, FeasImpl /*impl*/,
                                const CancelToken* cancel) {
  RetimeSolution result;
  const std::int64_t current = graph.period();

  // Candidate periods are exact path delays; binary search over them keeps
  // every probe meaningful and the result exactly achievable.
  const std::vector<std::int64_t> candidates = candidate_periods(graph, cancel);

  // Phase 1: unbounded optimum via FEAS (cheap probes). It is a lower bound
  // for the bounded problem.
  std::size_t lo = 0;
  std::size_t hi = candidates.size();  // exclusive; current period feasible
  {
    // Find index of `current` (feasible upper bound).
    const auto it =
        std::lower_bound(candidates.begin(), candidates.end(), current);
    hi = static_cast<std::size_t>(it - candidates.begin());
  }
  std::vector<std::int64_t> best_r(graph.vertex_count(), 0);
  std::int64_t best_phi = current;
  std::size_t unbounded_lo = lo;
  {
    std::size_t a = lo;
    std::size_t b = hi;  // candidates[hi] == current is known feasible
    while (a < b) {
      poll_cancel(cancel);
      const std::size_t mid = a + (b - a) / 2;
      if (feas_check(graph, candidates[mid])) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    unbounded_lo = a;
  }

  if (!graph.has_bounds()) {
    if (unbounded_lo < candidates.size() && candidates[unbounded_lo] < current) {
      if (auto r = feas_check(graph, candidates[unbounded_lo])) {
        best_r = normalize_to_host(std::move(*r), graph);
        best_phi = candidates[unbounded_lo];
      }
    }
    result.feasible = true;
    result.period = best_phi;
    result.r = std::move(best_r);
    return result;
  }

  // Phase 2: bounded search in [unbounded optimum, current period].
  std::size_t a = unbounded_lo;
  std::size_t b = hi;  // current period is feasible with r = 0 under bounds
                       // (bounds admit 0 by construction)
  std::optional<std::vector<std::int64_t>> best;
  while (a < b) {
    poll_cancel(cancel);
    const std::size_t mid = a + (b - a) / 2;
    if (auto r = bounded_feasible(graph, candidates[mid], nullptr, cancel)) {
      best = std::move(r);
      best_phi = candidates[mid];
      b = mid;
    } else {
      a = mid + 1;
    }
  }
  if (best) {
    best_r = std::move(*best);
  }
  result.feasible = true;
  result.period = best ? best_phi : current;
  result.r = std::move(best_r);
  return result;
}

}  // namespace mcrt
