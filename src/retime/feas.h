// The FEAS algorithm (Leiserson & Saxe, "Retiming Synchronous Circuitry").
//
// Decides whether a clock period phi is feasible for an (unbounded)
// retiming graph in O(V * E): repeatedly compute combinational arrival
// times under the current tentative retiming and increment r(v) for every
// vertex whose arrival exceeds phi. After |V| - 1 rounds, phi is feasible
// iff the retimed clock period is at most phi. The engine iterates over
// the RetimeGraph's flat CSR view with scratch arrays reused across rounds.
//
// Its independent reference is the W/D formulation: Leiserson-Saxe's
// period constraints solved by Bellman-Ford (bounded_feasible() in
// minperiod.h). tests/retime/feas_differential_test.cpp checks that both
// accept exactly the same periods.
//
// FEAS cannot honor per-vertex retiming bounds; the bounded feasibility
// check lives in minperiod.cpp (difference-constraint formulation).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "retime/retime_graph.h"

namespace mcrt {

/// The FEAS engine minperiod_retime() probes with. There is one; the enum
/// and minperiod_retime()'s parameter stay because callers outside this
/// library (the flow benchmark) pass FeasImpl::kCsr explicitly.
enum class FeasImpl { kCsr };

/// Returns the retiming labels achieving period <= phi, or std::nullopt if
/// phi is infeasible for the graph (ignoring bounds).
std::optional<std::vector<std::int64_t>> feas_check(const RetimeGraph& graph,
                                                    std::int64_t phi);

}  // namespace mcrt
