// Period-constraint generation from the W/D path matrices.
//
// For a target period phi, retiming must place a register on every path
// with delay exceeding phi, which yields difference constraints
//
//     r(u) - r(v) <= W(u,v) - 1      whenever D(u,v) > phi,
//
// where W(u,v) is the minimum path weight u ~> v and D(u,v) the maximum
// delay among minimum-weight paths. W comes from one Dijkstra per source
// and D from a longest-path pass over its tight edges.
//
// Min-area needs these constraints at the one period it optimizes, and
// generate_period_constraints() emits a system with the same feasible set
// as the full one, far smaller:
//  - The box. period_box() (feas.h) first computes the greatest and the
//    least labelings hi and lo (r(host) = 0) that meet the circuit, the
//    class bounds and phi (Maheshwari and Sapatnekar's Minaret bounds).
//    Every feasible labeling lies between them, so r(u) - r(v) <=
//    hi(u) - lo(v) is implied, and a pair with W(u,v) > hi(u) - lo(v) is
//    redundant. The box is emitted as host constraints r(u) <= hi(u) and
//    r(v) >= lo(v) wherever it is tighter than the class bounds.
//  - Local sweeps. lo is legal, so the reduced weights w(e) + lo(to) -
//    lo(from) are >= 0, and a pair is needed only if its reduced distance
//    W(u,v) + lo(v) - lo(u) is at most width(u) = hi(u) - lo(u). Each
//    source's Dijkstra is a bucket queue over 0..width(u) that stops
//    there; the mean width is a few registers. A pair at reduced distance
//    0 has no register on a min-weight path under lo, which meets phi, so
//    D(u,v) <= phi: a source the box fixes (width 0) is not swept at all.
//    A source with an unbounded extreme (it reaches neither the host nor
//    a bounded vertex, or neither is reached from it) is swept in full
//    and its pairs take the box test one by one.
//  - Shenoy-Rudell. Only *minimally violating* pairs are emitted:
//    D(u,v) - d(u) <= phi and D(u,v) - d(v) <= phi. A dominated pair is
//    implied by the constraint of an interior pair (emitted, or implied by
//    the box) plus circuit constraints.
// If phi is infeasible, the output is one unsatisfiable marker.
//
// Min-period never needs these constraints: the bounded FEAS of feas.h
// decides every probe. A min-area caller generates them once per period
// and keeps them while the bounds only tighten: every emitted constraint
// is implied by the looser system, hence by the tighter one, and every
// dropped one is implied by the emitted ones. The W/D reference
// bounded_feasible() (minperiod.h) solves the unpruned system, which
// shares nothing with FEAS.
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
/// generate_period_constraints() call and the unpruned reference), the
/// vertices those sweeps settled over all their sources, feasibility
/// probes (every feas_check() run, both probes of every period_box() and
/// every bounded_feasible() solve), the timing rounds of those FEAS runs,
/// the successful relaxations of the bounded_feasible() solves, and the
/// min-cost-flow phases (Dijkstras) and augmenting paths of
/// minarea_retime(). A caller measures its own work as the difference
/// across its calls (operator-); mc_retime reports it in McRetimeStats.
struct RetimeWorkCounters {
  std::size_t wd_sweeps = 0;
  std::size_t wd_settled = 0;
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
        {"wd_settled", &RetimeWorkCounters::wd_settled},
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
/// indices), pruned by the period box and by Shenoy-Rudell: the pairs,
/// sources ascending and targets ascending per source, then the box's host
/// constraints in vertex order. `cancel` (may be null) is polled once per
/// path source: the generation is one Dijkstra per vertex, the cost that
/// dominates large min-area solves, so it must be interruptible.
void generate_period_constraints(const RetimeGraph& graph, std::int64_t phi,
                                 std::vector<DifferenceConstraint>& out,
                                 const CancelToken* cancel = nullptr);

/// Reference generator: every pair with D(u,v) > phi, no pruning. Same
/// feasible set as the pruned generator (that is the pruning's correctness
/// claim, and tests cross-check the two); quadratically larger output.
void generate_period_constraints_unpruned(
    const RetimeGraph& graph, std::int64_t phi,
    std::vector<DifferenceConstraint>& out,
    const CancelToken* cancel = nullptr);

/// Circuit constraints r(u) - r(v) <= w(e) for every edge, plus bound
/// constraints through the host vertex if the graph has bounds.
void generate_circuit_constraints(const RetimeGraph& graph,
                                  std::vector<DifferenceConstraint>& out);

}  // namespace mcrt
