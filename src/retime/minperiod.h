// Minimum-period retiming (paper §5.1, Step 4).
//
// Two phases, both binary searches with a feasibility oracle:
//  1. bounds ignored: FEAS (O(V*E) per probe) bisects over the multiples
//     of g = gcd of the nonzero vertex delays in [max d(v), current
//     period]. Every path delay is such a multiple, so the smallest
//     accepted one is the unbounded optimum; it needs no W/D sweep.
//  2. graphs with class bounds: the unbounded optimum is a lower bound.
//     One W/D sweep (a PeriodConstraintTable over [that optimum, current
//     period]) yields the candidate periods - the path delays in the range
//     - and, per probe, the pruned period constraints; circuit + bound +
//     period constraints are solved by SPFA.
// A caller that re-solves one graph under tightened bounds (the relocation
// retries of mc_retime, the windowed global fallback) passes the same table
// every time, so the graph costs one sweep and one phase 1 in total.
#pragma once

#include <optional>
#include <vector>

#include "base/cancel.h"
#include "retime/feas.h"
#include "retime/period_constraints.h"
#include "retime/retime_graph.h"

namespace mcrt {

/// Computes the minimum feasible clock period and a retiming achieving it.
/// The returned labels are normalized to r(host) = 0 and legal w.r.t.
/// bounds. `feasible` is false only if the graph is malformed (a single
/// vertex slower than every period bound cannot happen with finite delays).
/// `impl` names the FEAS engine for the unbounded probes (see FeasImpl).
/// `cancel` (may be null) is polled per probe and inside constraint
/// generation, so one oversized monolithic solve cannot stall a batch or a
/// window deadline.
///
/// `table` (may be null) carries the W/D sweep across calls. An empty
/// table, or one whose range misses the current period, is (re)built over
/// [unbounded optimum, current period]. A built table is reused as is, and
/// the search starts at the low end of its range, so that end must not
/// exceed this graph's bounded optimum. The unbounded optimum never does,
/// whatever the bounds: any table an earlier call built on the same
/// vertices, edges, weights and delays qualifies. Graphs without bounds
/// never touch the table. Sweeps and probes are counted in
/// retime_work_counters().
RetimeSolution minperiod_retime(const RetimeGraph& graph,
                                FeasImpl impl = FeasImpl::kCsr,
                                const CancelToken* cancel = nullptr,
                                PeriodConstraintTable* table = nullptr);

/// Phase 1 alone: the smallest period FEAS accepts for the graph with its
/// bounds ignored, found by bisection over the multiples of the delay gcd
/// in [max d(v), current period].
std::int64_t unbounded_min_period(const RetimeGraph& graph,
                                  const CancelToken* cancel = nullptr);

/// Feasibility check honoring bounds: is there a legal retiming with
/// period <= phi? Returns the labels if so. An optional cache of the
/// period constraints for phi avoids recomputing the all-pairs paths.
/// The labels are the pointwise-maximal solution (before normalization)
/// of the constraint system, so any two constraint sets with the same
/// feasible set give the same labels.
std::optional<std::vector<std::int64_t>> bounded_feasible(
    const RetimeGraph& graph, std::int64_t phi,
    const std::vector<struct DifferenceConstraint>*
        cached_period_constraints = nullptr,
    const CancelToken* cancel = nullptr);

}  // namespace mcrt
