// Minimum-cost flow (transshipment) solver with node-potential extraction.
//
// The Leiserson-Saxe minimum-area retiming ILP
//
//     minimize   sum_v c(v) * r(v)
//     subject to r(u) - r(v) <= b(e)        for each constraint arc e=(u,v)
//
// is the linear-programming dual of a transshipment problem: each constraint
// arc carries flow at cost b(e) with infinite capacity, and node v must have
// net inflow c(v). Because the constraint matrix is totally unimodular the
// LP optimum is integral, and the optimal retiming labels are recovered from
// the flow solver's node potentials (r = -pi). This file implements the
// primal-dual algorithm: a Bellman-Ford (SPFA) bootstrap for negative arc
// costs, then phases of one Dijkstra on reduced costs (stopped once the sink
// is settled) that raises the potentials, followed by Dinic blocking flows
// over the admissible arcs (residual capacity > 0, reduced cost 0) until the
// sink is cut off. Min-area instances route thousands of units at the same
// distance, so a phase replaces thousands of one-path augmentations.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/cancel.h"

namespace mcrt {

class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t node_count);

  /// Cooperative cancellation: solve() polls `token` once per phase, once
  /// per Dinic BFS and every few thousand steps of the Bellman-Ford
  /// bootstrap and of each blocking flow, throwing CancelledError on a stop
  /// request.
  void set_cancel(const CancelToken* token) noexcept { cancel_ = token; }

  /// Adds an arc from -> to with the given capacity and per-unit cost and
  /// returns its ordinal (0 for the first arc added, then 1, 2, ...).
  /// Use MinCostFlow::kInfinite for uncapacitated (constraint) arcs.
  std::size_t add_arc(std::uint32_t from, std::uint32_t to, std::int64_t cap,
                      std::int64_t cost);

  /// Sets the required net inflow of a node (positive = demand/sink,
  /// negative = supply/source). Sum over all nodes must be zero.
  void set_demand(std::uint32_t node, std::int64_t demand);

  struct Solution {
    std::int64_t total_cost = 0;
    /// Node potentials pi; for the retiming dual, r(v) = -pi(v).
    std::vector<std::int64_t> potential;
    /// Flow per arc, indexed by the value returned from add_arc.
    std::vector<std::int64_t> arc_flow;
    /// Work: Dijkstra phases run and augmenting paths routed by the
    /// blocking flows.
    std::size_t phases = 0;
    std::size_t augmentations = 0;
  };

  /// Solves the transshipment problem. Returns std::nullopt if demands
  /// cannot be met or a negative-cost infinite cycle exists (the dual LP is
  /// then infeasible / the primal unbounded). Leaves the network unchanged,
  /// so calling it again gives the same answer.
  std::optional<Solution> solve() const;

  static constexpr std::int64_t kInfinite = INT64_MAX / 4;

 private:
  struct Arc {
    std::uint32_t from;
    std::uint32_t to;
    std::int64_t cap;
    std::int64_t cost;
  };
  std::vector<Arc> arcs_;
  std::vector<std::int64_t> demand_;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace mcrt
