// Content-addressed structural hashing of netlists.
//
// structural_hash() digests what a circuit *is* — its interface (primary
// input/output names), its combinational structure (truth tables, fanin
// wiring, delays) and its register classes (clock/enable/sync/async wiring
// and reset values) — while ignoring how it happens to be stored: node and
// net insertion order, internal net names, and index numbering all leave
// the hash unchanged. Two netlists built in different orders, or the same
// netlist shuffled by a pass that only renumbers, hash identically; any
// change to logic, wiring, a register's class or a reset value moves it.
//
// The algorithm is Weisfeiler–Lehman style label refinement: every net
// starts with a label derived from its driver's local structure, labels are
// refined for a fixed number of rounds by hashing each driver's input
// labels into its output label (registers included, so feedback loops
// propagate), and the final 128-bit digest order-independently folds every
// net's label plus the interface bindings. 128 bits (two independently
// seeded 64-bit lanes) makes accidental collisions implausible.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.h"

namespace mcrt {

struct StructuralHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const StructuralHash&) const = default;
  /// 32 lowercase hex digits, hi lane first.
  [[nodiscard]] std::string hex() const;
};

StructuralHash structural_hash(const Netlist& netlist);

}  // namespace mcrt
