// Minimum-period retiming (paper §5.1, Step 4).
//
// One binary search with the bounded FEAS of feas.h as its oracle, for
// every bound set: it bisects over the multiples of g = gcd of the nonzero
// vertex delays. Every path delay is such a multiple, lies in [max d(v),
// sum d(v)] (a zero-weight path of a legal retiming is simple) and is where
// feasibility can change, so the smallest accepted multiple is the
// optimum; no W/D sweep is needed. When the bounds admit r = 0 the
// current period is feasible and the search covers [max d(v), current
// period]; when they exclude 0 (relocation retries in delta space do) it
// covers [max d(v), sum d(v)] and probes the upper end first, which
// decides whether any legal labeling exists. FEAS rejects an infeasible
// period as soon as its parent pointers close a cycle, so an infeasible
// probe usually costs a few rounds, not the O(V * E) worst case that still
// bounds it. The W/D formulation survives as bounded_feasible(), the test
// reference, and as the period constraints min-area needs at its one
// period (period_constraints.h).
#pragma once

#include <optional>
#include <vector>

#include "base/cancel.h"
#include "retime/feas.h"
#include "retime/period_constraints.h"
#include "retime/retime_graph.h"

namespace mcrt {

/// Computes the minimum feasible clock period and a retiming achieving it:
/// the least labels >= 0, normalized to r(host) = 0, that FEAS returns at
/// the smallest feasible multiple of the delay gcd (`period`). When the
/// bounds admit 0 and no period below the current one is feasible, the
/// labels are all 0. `feasible` is false only when no legal labeling meets
/// the bounds. `impl` names the FEAS engine (see FeasImpl). `cancel` (may
/// be null) is polled per probe, so one oversized monolithic solve cannot
/// stall a batch or a window deadline. Probes and rounds are counted in
/// retime_work_counters().
RetimeSolution minperiod_retime(const RetimeGraph& graph,
                                FeasImpl impl = FeasImpl::kCsr,
                                const CancelToken* cancel = nullptr);

/// Feasibility check honoring bounds by the W/D formulation: circuit, bound
/// and period constraints solved by SPFA. Is there a legal retiming with
/// period <= phi? Returns the labels if so. Without a cache it generates
/// the unpruned period constraints, which involve no FEAS, so it stays an
/// independent reference for feas_check(). A cache (for example
/// generate_period_constraints() output for phi, which has the same
/// feasible set) avoids recomputing the all-pairs paths.
/// The labels are the least solution >= 0 (before normalization) of the
/// constraint system: SPFA's greatest solution <= 0 of the system with
/// every constraint reversed, negated. Any two constraint sets with the
/// same feasible set give the same labels, and so does feas_check().
std::optional<std::vector<std::int64_t>> bounded_feasible(
    const RetimeGraph& graph, std::int64_t phi,
    const std::vector<struct DifferenceConstraint>*
        cached_period_constraints = nullptr,
    const CancelToken* cancel = nullptr);

}  // namespace mcrt
