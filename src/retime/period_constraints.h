// Period-constraint generation from the W/D path matrices.
//
// For a target period phi, retiming must place a register on every path
// with delay exceeding phi, which yields difference constraints
//
//     r(u) - r(v) <= W(u,v) - 1      whenever D(u,v) > phi,
//
// where W(u,v) is the minimum path weight u ~> v and D(u,v) the maximum
// delay among minimum-weight paths. This module runs one Dijkstra per
// source (for W) plus a longest-path pass over its tight edges (for D) and
// emits the constraints, applying the Shenoy-Rudell pruning: the pair
// (u,v) is emitted only if it is *minimally violating*, i.e.
// D(u,v) - d(u) <= phi and D(u,v) - d(v) <= phi; dominated pairs are
// implied by the emitted constraint of an interior pair plus circuit
// constraints, so dropping them preserves the feasible set while
// shrinking the system drastically.
//
// Min-period never needs these constraints: the bounded FEAS of feas.h
// decides every probe. Min-area does, at the one period it optimizes: a
// caller generates them once per period and keeps them while the bounds
// only tighten (the bound pruning drops a pair only when the bounds imply
// its constraint, and tighter bounds still imply it). The W/D reference
// bounded_feasible() (minperiod.h) also solves them.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "base/cancel.h"
#include "graph/difference_constraints.h"
#include "retime/retime_graph.h"

namespace mcrt {

/// W/D labels from one source vertex. weight[v] = W(source, v), delay[v] =
/// D(source, v) for reached vertices. The host is sink-only (its out-edges
/// close the environment loop and are not combinational paths).
struct WdLabels {
  std::vector<std::int64_t> weight;
  std::vector<std::int64_t> delay;
  std::vector<bool> reached;
};

/// One Dijkstra (for W) plus a longest-path DP over the tight-edge DAG
/// (for D = max delay among minimum-weight paths).
WdLabels compute_wd_from_source(const RetimeGraph& graph, VertexId source);

/// Deterministic work counters of the retiming layer, kept per thread and
/// only ever incremented: all-pairs W/D sweeps (every
/// generate_period_constraints() call and the unpruned reference),
/// feasibility probes (every feas_check() run and every bounded_feasible()
/// solve), the timing rounds of those FEAS runs, the successful
/// relaxations of the bounded_feasible() solves, and the min-cost-flow
/// phases (Dijkstras) and augmenting paths of minarea_retime(). A caller
/// measures its own work as the difference across its calls (operator-);
/// mc_retime reports it in McRetimeStats.
struct RetimeWorkCounters {
  std::size_t wd_sweeps = 0;
  std::size_t feas_probes = 0;
  std::size_t feas_rounds = 0;
  std::size_t dc_relaxations = 0;
  std::size_t mcf_phases = 0;
  std::size_t mcf_augmentations = 0;
};
RetimeWorkCounters& retime_work_counters();

/// Every counter: its name (the retime pass reports `retime.<name>`) and
/// its member.
inline constexpr std::pair<std::string_view, std::size_t RetimeWorkCounters::*>
    kRetimeWorkCounters[] = {
        {"wd_sweeps", &RetimeWorkCounters::wd_sweeps},
        {"feas_probes", &RetimeWorkCounters::feas_probes},
        {"feas_rounds", &RetimeWorkCounters::feas_rounds},
        {"dc_relaxations", &RetimeWorkCounters::dc_relaxations},
        {"mcf_phases", &RetimeWorkCounters::mcf_phases},
        {"mcf_augmentations", &RetimeWorkCounters::mcf_augmentations},
};

/// The work done between two readings, counter by counter.
inline RetimeWorkCounters operator-(RetimeWorkCounters after,
                                    const RetimeWorkCounters& before) {
  for (const auto& [name, counter] : kRetimeWorkCounters) {
    after.*counter -= before.*counter;
  }
  return after;
}

/// Appends the period constraints for `phi` to `out` (variable ids = vertex
/// indices), pruned by Shenoy-Rudell and by the graph's current bounds
/// (Maheshwari-Sapatnekar), sources ascending and targets ascending per
/// source. `cancel` (may be null) is polled once per path source: the
/// generation is one Dijkstra per vertex, the quadratic-ish cost that
/// dominates large min-area solves, so it must be interruptible.
void generate_period_constraints(const RetimeGraph& graph, std::int64_t phi,
                                 std::vector<DifferenceConstraint>& out,
                                 const CancelToken* cancel = nullptr);

/// Reference generator: every pair with D(u,v) > phi, no pruning. Same
/// feasible set as the pruned generator (that is the pruning's correctness
/// claim, and tests cross-check the two); quadratically larger output.
void generate_period_constraints_unpruned(
    const RetimeGraph& graph, std::int64_t phi,
    std::vector<DifferenceConstraint>& out);

/// Circuit constraints r(u) - r(v) <= w(e) for every edge, plus bound
/// constraints through the host vertex if the graph has bounds.
void generate_circuit_constraints(const RetimeGraph& graph,
                                  std::vector<DifferenceConstraint>& out);

}  // namespace mcrt
