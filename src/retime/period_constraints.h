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
// W and D depend only on the graph's edges, weights and delays; phi and
// the retiming bounds only decide which pairs are emitted. One all-pairs
// sweep can therefore serve every period in a range and every tightening
// of the bounds: PeriodConstraintTable keeps the pairs some phi in
// [phi_lo, phi_hi] could emit and re-applies both prunings on demand.
// generate_period_constraints() is a one-period table, so the pruning
// rules exist once.
#pragma once

#include <cstdint>
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
/// only ever incremented: all-pairs W/D sweeps (every table build, so every
/// generate_period_constraints() call too, plus candidate_periods() and the
/// unpruned reference) and feasibility probes (FEAS runs and bounded
/// difference-constraint solves of minperiod.h). A caller measures its own
/// work as the difference across its calls; mc_retime reports it in
/// McRetimeStats.
struct RetimeWorkCounters {
  std::size_t wd_sweeps = 0;
  std::size_t feas_probes = 0;
};
RetimeWorkCounters& retime_work_counters();

/// The result of one all-pairs W/D sweep, restricted to the periods
/// [phi_lo, phi_hi]. It stores, in CSR by source (targets ascending), only
/// the pairs (u,v) that some phi in the range could emit: D(u,v) > phi_lo
/// and D(u,v) - min(d(u), d(v)) <= phi_hi. The bound pruning is not applied
/// at build time, so the table stays valid when the graph's bounds change,
/// as long as its vertices, edges, weights and delays do not.
class PeriodConstraintTable {
 public:
  /// Runs the sweep (one Dijkstra per non-host source, `cancel` polled once
  /// per source) and replaces any earlier contents. Requires phi_lo <=
  /// phi_hi.
  void build(const RetimeGraph& graph, std::int64_t phi_lo,
             std::int64_t phi_hi, const CancelToken* cancel = nullptr);

  [[nodiscard]] bool built() const noexcept { return built_; }
  [[nodiscard]] bool covers(std::int64_t phi) const noexcept {
    return built_ && phi_lo_ <= phi && phi <= phi_hi_;
  }
  /// Distinct path delays D(u,v), single vertices included, that lie in
  /// [phi_lo, phi_hi], ascending: the only periods at which feasibility
  /// can change inside the range.
  [[nodiscard]] const std::vector<std::int64_t>& candidates() const noexcept {
    return candidates_;
  }

  /// Appends to `out` exactly what generate_period_constraints(graph, phi)
  /// emits, in the same order, pruned under `graph`'s current bounds.
  /// Requires covers(phi) (throws std::logic_error otherwise) and `graph`
  /// structurally equal to the graph the table was built from.
  void append(const RetimeGraph& graph, std::int64_t phi,
              std::vector<DifferenceConstraint>& out) const;

 private:
  bool built_ = false;
  std::int64_t phi_lo_ = 0;
  std::int64_t phi_hi_ = 0;
  std::vector<std::uint32_t> offsets_;  ///< vertex_count + 1, by source
  std::vector<std::uint32_t> to_;
  std::vector<std::int64_t> weight_;  ///< W(u,v)
  std::vector<std::int64_t> delay_;   ///< D(u,v)
  std::vector<std::int64_t> candidates_;
};

/// Appends the pruned period constraints for `phi` to `out` (variable ids =
/// vertex indices). `cancel` (may be null) is polled once per path source:
/// the generation is one Dijkstra per vertex, the quadratic-ish cost that
/// dominates large monolithic solves, so it must be interruptible. A
/// one-period PeriodConstraintTable; callers that need several periods or
/// bound sets of one graph should keep a table instead.
void generate_period_constraints(const RetimeGraph& graph, std::int64_t phi,
                                 std::vector<DifferenceConstraint>& out,
                                 const CancelToken* cancel = nullptr);

/// Reference generator: every pair with D(u,v) > phi, no pruning. Same
/// feasible set as the pruned generator (that is the pruning's correctness
/// claim, and tests cross-check the two); quadratically larger output.
void generate_period_constraints_unpruned(
    const RetimeGraph& graph, std::int64_t phi,
    std::vector<DifferenceConstraint>& out);

/// All distinct D(u,v) values (candidate clock periods), sorted ascending.
/// Includes single-vertex "paths" (d(v) alone). One sweep, deduplicated
/// per source, so memory is O(V + distinct values). `cancel` is polled
/// once per path source.
std::vector<std::int64_t> candidate_periods(const RetimeGraph& graph,
                                            const CancelToken* cancel =
                                                nullptr);

/// Circuit constraints r(u) - r(v) <= w(e) for every edge, plus bound
/// constraints through the host vertex if the graph has bounds.
void generate_circuit_constraints(const RetimeGraph& graph,
                                  std::vector<DifferenceConstraint>& out);

}  // namespace mcrt
