// The FEAS algorithm (Leiserson & Saxe, "Retiming Synchronous Circuitry"),
// run in the lowering direction and extended to per-vertex bounds.
//
// Decides whether a clock period phi is feasible in O(V * E): repeatedly
// compute combinational departure times (the largest delay of a
// zero-weight path leaving each vertex) under the current tentative
// retiming and decrement r(u) for every vertex whose departure exceeds
// phi. Between these timing rounds, every other constraint is repaired by
// lowering labels to a fixed point:
//  - legality, r(u) <= r(v) + w(e) for every edge e = u -> v;
//  - the §4.1 class bounds, which are difference constraints through the
//    host (paper §5.1): r(v) <= r(host) + r_max(v) and
//    r(host) <= r(v) - r_min(v), pseudo-edges host -> v and v -> host that
//    carry no timing.
// Bounds that exclude 0 (r_min > 0 or r_max < 0, as window retries create)
// are repaired before the first round. Labels only fall, and each fall is
// forced by a constraint that every solution r* <= r also meets, so r
// stays at or above every such solution: the first fixed point is the
// greatest solution <= 0 of the whole system, normalized to r(host) = 0.
//
// feas_check() runs this probe on the transposed system (see "The period
// box" below) and negates the result: its labels are the least solution
// >= 0, normalized to r(host) = 0. A positive label moves registers
// backward, whose reset values relocation must justify (paper §5.2); the
// least solution makes the fewest such moves that phi allows, so
// relocation rarely fails on it (the forward preference of Even,
// Spillinger and Stok, "Retiming revisited and reversed", IEEE TCAD 1996).
// bounded_feasible() (W/D + SPFA, minperiod.h) returns the same least
// solution, so the two agree on labels as well as on verdicts.
//
// Rounds. After a repair every retimed path weight is >= 0, so a W/D
// period constraint r(u) <= r(v) + W(u,v) - 1 is violated by exactly 1
// when it is violated at all, and its vertex u is then one whose departure
// exceeds phi. A timing round is thus one Jacobi pass of Bellman-Ford over
// the period constraints, and a repair runs the circuit and bound
// constraints to completion. By the Bellman-Ford induction, after k rounds
// every vertex whose shortest constraint path (from the all-zero start)
// uses at most k period constraints holds its final label. A feasible
// system has a simple shortest path to every vertex, with at most |V| - 1
// edges, so a feasible phi reaches its fixed point within |V| - 1 lowering
// rounds, bounds or not, and the round after them finds nothing to lower.
// A phi that still needs a lowering in round |V| is infeasible: this
// backstop never rejects a feasible phi. The initial bound repair is not
// a round. Rounds and probes are counted in retime_work_counters().
//
// An infeasible phi is usually rejected long before that, by a
// parent-cycle certificate (the walk-to-root test of Bellman-Ford labeling
// methods; Tarjan 1981, Cherkassky-Goldberg 1999). Each lowering of r(x)
// records the vertex whose constraint forced it: the last vertex v of x's
// critical zero-weight path p for a timing decrement (against
// r(x) - r(v) <= w(p) - 1, since every period-phi retiming puts a register
// on p), the edge's head for a legality repair, the host for an upper
// bound and the bounded vertex for a lower bound. Each pointer is set by a
// strict decrease, so the constraints around a cycle of pointers sum to
// less than 0 and no retiming satisfies them. An O(V) walk after every
// round, and every |V| relaxations inside a repair, finds such a cycle; it
// cannot exist for a feasible phi, so accepted probes are unchanged.
//
// Its independent reference is bounded_feasible(): Leiserson-Saxe's W/D
// period constraints solved by SPFA. tests/retime/feas_differential_test.cpp
// checks that both give the same verdict and labels, with and without
// bounds.
//
// The period box. The same probe, started from an upper bound on every
// solution instead of from 0, stops at the greatest solution below that
// start; run on the reversed graph with the bounds negated and swapped,
// it gives minus the least solution. These extreme labelings at phi
// (Maheshwari and Sapatnekar's ASAP/ALAP retimings, "Efficient retiming
// of large circuits", IEEE TVLSI 1998) bound every feasible labeling, and
// generate_period_constraints() prunes with them. They are not
// feas_check()'s labels: box.lo is the least labeling with r(host) = 0
// and may be unbounded below, feas_check()'s the least labeling >= 0
// before its normalization.
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

/// Returns the least legal labels >= 0 (then normalized to r(host) = 0)
/// that honour the graph's bounds and achieve period <= phi, or
/// std::nullopt if there are none. One transposed FEAS probe.
std::optional<std::vector<std::int64_t>> feas_check(const RetimeGraph& graph,
                                                    std::int64_t phi);

/// The extreme labelings at phi: every legal labeling with r(host) = 0
/// that honours the graph's bounds and achieves period <= phi lies in
/// [lo, hi] componentwise, and both are such labelings where finite. A
/// vertex that no constraint bounds above has hi = RetimeGraph::kNoBound
/// (these vertices reach neither the host nor an upper-bounded vertex;
/// the set is closed under successors), and one unbounded below has
/// lo = -RetimeGraph::kNoBound (closed under predecessors).
struct PeriodBox {
  std::vector<std::int64_t> lo;
  std::vector<std::int64_t> hi;
};

/// Two FEAS probes (counted in retime_work_counters()), one per direction;
/// std::nullopt when phi is infeasible.
std::optional<PeriodBox> period_box(const RetimeGraph& graph,
                                    std::int64_t phi);

}  // namespace mcrt
