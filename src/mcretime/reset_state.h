// Reset-value calculus for register moves (paper §5.2).
//
// A forward move computes new reset values by *implication*: the created
// register's value is the gate function applied to the consumed registers'
// values (three-valued, '-' = unknown/don't-care).
//
// A backward move must *justify*: find per-pin input values x with
// f(x) = b, where b is the (merged) value of the consumed registers.
// Implemented with BDDs, selecting the satisfying BDD path with the fewest
// literals so that many new registers keep a '-' value — which both avoids
// later conflicts and improves sharing (paper §5.2). A path decides every
// variable it passes, so a shorter implicant can exist (ROADMAP item 3).
#pragma once

#include <optional>
#include <vector>

#include "netlist/netlist.h"
#include "netlist/truth_table.h"

namespace mcrt {

/// Merges the reset values of a register layer: all concrete values must
/// agree; '-' is absorbed. Returns std::nullopt on a 0/1 clash (the local
/// conflict case that triggers global justification).
std::optional<ResetVal> merge_reset_values(const std::vector<ResetVal>& vals);

/// Forward implication through a gate.
ResetVal imply_through(const TruthTable& f, const std::vector<ResetVal>& pins);

/// Backward justification: values for each pin such that f evaluates to
/// `target`, from the shortest path of f's BDD (pin order): as many '-'
/// entries as a cube of that order allows. std::nullopt if no assignment
/// exists (f is constant != target).
std::optional<std::vector<ResetVal>> justify_through(const TruthTable& f,
                                                     bool target);

}  // namespace mcrt
