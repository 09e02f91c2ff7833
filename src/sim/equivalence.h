// Sequential equivalence oracle for retiming.
//
// A legal mc-retiming must be a "sufficiently old replacement" [Leiserson &
// Saxe 83]: driven with the same inputs from the same (equivalent) starting
// condition, every primary-output value that is defined (0/1) in the
// original circuit must be identical in the transformed circuit.
//
// The check runs both circuits from the all-X state on shared random
// stimulus (with reset-like inputs held active for a configurable prefix so
// set/clear cones fire) and compares defined outputs cycle by cycle after a
// warm-up period that absorbs retiming lag.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.h"
#include "netlist/netlist.h"

namespace mcrt {

struct EquivalenceOptions {
  /// Simulation backend. kWord packs all runs into 64-lane words on the
  /// compact core (one settle covers up to 64 runs); kScalar is the seed's
  /// one-run-at-a-time path. Both draw stimulus in the same RNG order and
  /// produce the same verdict, counterexample and compared-output count —
  /// the engine differential test holds this equality permanently.
  enum class Engine { kWord, kScalar };
  Engine engine = Engine::kWord;

  std::size_t cycles = 64;        ///< cycles simulated per run
  std::size_t runs = 8;           ///< independent stimulus sequences
  std::size_t warmup = 0;         ///< cycles before outputs are compared
  std::size_t reset_prefix = 3;   ///< cycles with reset-like inputs high
  /// Input-net names treated as reset-like (held 1 during the prefix,
  /// 0 afterwards). Empty = looks_like_reset() below.
  std::vector<std::string> reset_inputs;
  /// Initialize same-named registers in both circuits to a common random
  /// defined state each run. Use for structural transforms that preserve
  /// registers (decompose, mapping, sweep): it removes the X-pessimism that
  /// gate-level 3-valued simulation adds to restructured logic. Not
  /// applicable to retiming (registers change identity).
  bool init_registers_by_name = false;
  /// Tolerate `original defined, transformed X`: ternary simulation is
  /// only an abstraction, and restructuring (sweep/strash) plus register
  /// relocation can leave the transformed circuit X-pessimistic on
  /// defined original outputs without being wrong. With this set, only a
  /// defined-vs-defined disagreement is a mismatch — the same policy as
  /// TernaryBmcOptions::x_refinement_ok. The default (strict) demands
  /// the transformed output be defined and equal wherever the original
  /// is defined.
  bool x_refinement_ok = false;
  std::uint64_t seed = 1;
};

struct EquivalenceResult {
  bool equivalent = true;
  std::string counterexample;  ///< human-readable mismatch description
  std::size_t compared_defined_outputs = 0;
};

/// The reset-name heuristic: names containing "rst", "reset" or "__por".
bool looks_like_reset(std::string_view name);

/// Both netlists must have identical primary-input and output name lists
/// (order-insensitive match by name).
EquivalenceResult check_sequential_equivalence(const Netlist& original,
                                               const Netlist& transformed,
                                               const EquivalenceOptions& opt);

}  // namespace mcrt
