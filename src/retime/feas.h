// The FEAS algorithm (Leiserson & Saxe, "Retiming Synchronous Circuitry").
//
// Decides whether a clock period phi is feasible for an (unbounded)
// retiming graph in O(V * E): repeatedly compute combinational arrival
// times under the current tentative retiming and increment r(v) for every
// vertex whose arrival exceeds phi. After |V| - 1 rounds, phi is feasible
// iff the retimed clock period is at most phi. The engine iterates over
// the RetimeGraph's flat CSR view with scratch arrays reused across rounds.
//
// An infeasible phi is usually rejected long before round |V| - 1, by a
// parent-cycle certificate (the walk-to-root test of Bellman-Ford
// labeling methods; Tarjan 1981, Cherkassky-Goldberg 1999). Each raise of
// r(v) records the vertex u that forced it: the first vertex of v's
// critical zero-weight path p for a timing increment (tight against
// r(v) - r(u) >= 1 - w(p), since every period-phi retiming puts a register
// on p), the edge's tail for a legality repair (tight against
// r(v) - r(u) >= -w(e)). Each pointer is set by a strict raise, so the
// constraints around a cycle of pointers sum to more than 0 and no
// retiming satisfies them. An O(V) walk after every round finds such a
// cycle; it cannot exist for a feasible phi, so accepted probes are
// unchanged. The |V| - 1 round bound stays as the backstop: the worst case
// is still O(V * E). Rounds are counted in retime_work_counters().
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
