#include "retime/minarea.h"

#include <algorithm>
#include <unordered_map>

#include "flow/mincost_flow.h"
#include "retime/period_constraints.h"

namespace mcrt {

MinAreaResult minarea_retime(
    const RetimeGraph& graph, std::int64_t phi,
    const std::vector<DifferenceConstraint>* cached_period_constraints,
    const CancelToken* cancel) {
  MinAreaResult result;
  const std::size_t n = graph.vertex_count();
  const Digraph& g = graph.digraph();

  // Assemble all difference constraints. Variables: vertices, then one
  // mirror per multi-fanout vertex.
  std::vector<DifferenceConstraint> constraints;
  generate_circuit_constraints(graph, constraints);
  if (cached_period_constraints) {
    constraints.insert(constraints.end(), cached_period_constraints->begin(),
                       cached_period_constraints->end());
  } else {
    generate_period_constraints(graph, phi, constraints);
  }

  std::vector<std::int64_t> cost(n, 0);
  std::vector<DifferenceConstraint> mirror_constraints;
  std::size_t variable_count = n;
  for (std::size_t u = 0; u < n; ++u) {
    const VertexId uid{static_cast<std::uint32_t>(u)};
    const auto fanout = g.out_edges(uid);
    if (fanout.empty()) continue;
    if (fanout.size() == 1) {
      cost[g.to(fanout[0]).index()] += 1;
      cost[u] -= 1;
      continue;
    }
    // Mirror vertex for shared fanout.
    const auto mirror = static_cast<std::uint32_t>(variable_count++);
    cost.push_back(1);
    cost[u] -= 1;
    std::int64_t max_w = 0;
    for (const EdgeId e : fanout) max_w = std::max(max_w, graph.weight(e));
    for (const EdgeId e : fanout) {
      // r(v_i) - r(m_u) <= max_w - w(e_i)
      mirror_constraints.push_back(
          {g.to(e).value(), mirror, max_w - graph.weight(e)});
    }
  }
  constraints.insert(constraints.end(), mirror_constraints.begin(),
                     mirror_constraints.end());

  // Build the dual transshipment problem: constraint (u - v <= b) is an arc
  // u -> v with cost b; node net inflow requirement = cost coefficient.
  MinCostFlow flow(variable_count);
  flow.set_cancel(cancel);
  for (const auto& c : constraints) {
    if (c.u == c.v) {
      if (c.bound < 0) return result;  // unsatisfiable marker constraint
      continue;
    }
    flow.add_arc(c.u, c.v, MinCostFlow::kInfinite, c.bound);
  }
  for (std::size_t v = 0; v < variable_count; ++v) {
    if (cost[v] != 0) flow.set_demand(static_cast<std::uint32_t>(v), cost[v]);
  }
  const auto solution = flow.solve();
  if (!solution) return result;
  retime_work_counters().mcf_phases += solution->phases;
  retime_work_counters().mcf_augmentations += solution->augmentations;

  // Potentials give the optimal labels: r(v) = -pi(v), normalized to host.
  std::vector<std::int64_t> r(n);
  const std::int64_t base = -solution->potential[graph.host().index()];
  for (std::size_t v = 0; v < n; ++v) {
    r[v] = -solution->potential[v] - base;
  }
  if (!graph.check_legal(r).empty()) return result;  // defensive
  if (graph.period(r) > phi) return result;          // defensive

  result.feasible = true;
  result.r = std::move(r);
  result.area = graph.shared_register_area(result.r);
  return result;
}

}  // namespace mcrt
