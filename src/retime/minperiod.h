// Minimum-period retiming (paper §5.1, Step 4).
//
// Binary search over candidate clock periods with a feasibility oracle:
//  - graphs without retiming bounds use FEAS (O(V*E) per probe);
//  - graphs with class bounds use the difference-constraint system
//    (circuit + class + period constraints, solved by Bellman-Ford),
//    seeded with the unbounded FEAS optimum as a lower bound so only the
//    narrow residual range pays for constraint generation.
#pragma once

#include <optional>
#include <vector>

#include "base/cancel.h"
#include "retime/feas.h"
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
RetimeSolution minperiod_retime(const RetimeGraph& graph,
                                FeasImpl impl = FeasImpl::kCsr,
                                const CancelToken* cancel = nullptr);

/// Feasibility check honoring bounds: is there a legal retiming with
/// period <= phi? Returns the labels if so. An optional cache of the
/// period constraints for phi avoids recomputing the all-pairs paths.
std::optional<std::vector<std::int64_t>> bounded_feasible(
    const RetimeGraph& graph, std::int64_t phi,
    const std::vector<struct DifferenceConstraint>*
        cached_period_constraints = nullptr,
    const CancelToken* cancel = nullptr);

}  // namespace mcrt
