// Truth table to BDD: the one conversion that register-class analysis
// (§3.1), formal equivalence and reset-value justification (§5.2) share.
#pragma once

#include <span>

#include "bdd/bdd.h"
#include "netlist/truth_table.h"

namespace mcrt {

/// The function `table` with pin i replaced by `pins[i]` (a variable or any
/// composed function), by Shannon expansion on the last pin:
/// ITE(pins[last], table|last=1, table|last=0), recursively. Throws
/// std::invalid_argument unless there is one pin per table input.
BddRef table_bdd(BddManager& bdd, const TruthTable& table,
                 std::span<const BddRef> pins);

}  // namespace mcrt
