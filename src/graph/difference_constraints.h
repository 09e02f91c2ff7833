// Solver for systems of difference constraints  x(u) - x(v) <= b.
//
// This is the computational core of retiming feasibility (Leiserson-Saxe):
// circuit, period and class constraints are all difference constraints, and
// a system is satisfiable iff its constraint graph has no negative cycle
// (Bellman-Ford). The solution returned is the shortest-path potential,
// which for retiming yields the most-negative legal labeling; callers can
// normalize against a designated reference variable.
//
// Infeasibility is proved early by a parent-cycle certificate (the
// walk-to-root test; Tarjan 1981, Cherkassky-Goldberg, Math. Prog. 1999):
// every relaxation records the vertex it came from, and every |V|
// relaxations an O(V) walk over those parent pointers looks for a cycle.
// Each pointer is set by a strict decrease, so the constraints around such
// a cycle sum to less than 0: a negative cycle, found as soon as the parent
// graph closes it rather than after some vertex was relaxed |V| times. The
// relax-count bound stays as the backstop, so the O(V * E) worst case
// remains. Feasible systems are unaffected: the result is the unique
// greatest solution <= 0, whatever the relaxation order.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

namespace mcrt {

struct DifferenceConstraint {
  std::uint32_t u = 0;  ///< variable with +1 coefficient
  std::uint32_t v = 0;  ///< variable with -1 coefficient
  std::int64_t bound = 0;  ///< x(u) - x(v) <= bound
};

/// Solves the given system over `variable_count` variables.
/// Returns an assignment satisfying all constraints, or std::nullopt if the
/// system is infeasible (negative cycle). Uses SPFA (queue-based
/// Bellman-Ford) from a virtual source connected to every variable with
/// 0-weight edges, so unconstrained variables get value 0. The number of
/// successful relaxations is added to `*relaxations` when it is non-null.
std::optional<std::vector<std::int64_t>> solve_difference_constraints(
    std::size_t variable_count,
    const std::vector<DifferenceConstraint>& constraints,
    std::size_t* relaxations = nullptr);

/// Parent pointer of a vertex no relaxation has set.
inline constexpr std::uint32_t kNoParent =
    std::numeric_limits<std::uint32_t>::max();

/// The walk-to-root test: true iff following `parent` pointers (kNoParent
/// ends a walk) from some vertex returns to a vertex of the same walk.
/// O(V); `mark` is scratch, resized and overwritten.
bool has_parent_cycle(std::span<const std::uint32_t> parent,
                      std::vector<std::uint32_t>& mark);

}  // namespace mcrt
