// Bit-parallel ternary simulation on the data-oriented compact core.
//
// 64 independent stimulus vectors per pass: every signal carries a TritWord,
// a dual-rail (ones, zeros) pair whose bit v is vector v's value (1, 0, or X
// when neither bit is set). The EN/sync/async register-class semantics are
// expressed as masked ite updates, with the scalar simulator's settle bound
// and X-degrade policy, so every lane behaves exactly like one run of
// sim/simulator.h at ~64x the throughput. The engine iterates the
// CompactNetlist's flat arrays:
//  - truth tables come from the flat uint64 arena (no TruthTable objects);
//  - fanins are CSR spans read into a fixed 6-slot pin buffer (no per-node
//    vector rebuilding);
//  - netlists without async set/clear settle in a single topological pass
//    (the async-override fixed-point iteration exists only because async
//    controls can feed back into their own cones; without them the first
//    pass *is* the fixed point, so the verification iteration is skipped).
//
// Its reference is the scalar Simulator: tests/sim/sim_differential_test.cpp
// asserts lane-exact agreement on outputs and register state for every
// register class.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/compact.h"

namespace mcrt {

/// 64 ternary values: bit v set in `ones` = vector v is 1; in `zeros` = 0;
/// in neither = X. `ones & zeros` must stay empty.
struct TritWord {
  std::uint64_t ones = 0;
  std::uint64_t zeros = 0;

  static TritWord all(Trit t) {
    switch (t) {
      case Trit::kOne: return {~0ull, 0};
      case Trit::kZero: return {0, ~0ull};
      case Trit::kUnknown: return {0, 0};
    }
    return {0, 0};
  }
  [[nodiscard]] Trit lane(unsigned v) const {
    if ((ones >> v) & 1) return Trit::kOne;
    if ((zeros >> v) & 1) return Trit::kZero;
    return Trit::kUnknown;
  }
  void set_lane(unsigned v, Trit t) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    ones &= ~bit;
    zeros &= ~bit;
    if (t == Trit::kOne) ones |= bit;
    if (t == Trit::kZero) zeros |= bit;
  }
  bool operator==(const TritWord&) const = default;
};

/// Lane-wise ternary if-then-else: ctrl ? a : b, and where ctrl is X the
/// merge of a and b (defined only where they agree).
TritWord tritword_ite(TritWord ctrl, TritWord a, TritWord b);

class WordSimulator {
 public:
  /// Builds a private compact snapshot of `netlist`.
  explicit WordSimulator(const Netlist& netlist);
  /// Adopts an existing snapshot (caller keeps no obligations; the
  /// simulator owns its copy).
  explicit WordSimulator(CompactNetlist compact);

  void reset_to_unknown();
  void set_input(NetId input_net, TritWord value);
  /// Settles combinational logic + asynchronous overrides (all 64 lanes).
  void settle();
  [[nodiscard]] TritWord net_value(NetId net) const {
    return net_values_[net.index()];
  }
  [[nodiscard]] std::vector<TritWord> output_values() const;
  void clock_edge();
  std::vector<TritWord> step();

  [[nodiscard]] TritWord register_state(RegId reg) const {
    return reg_state_[reg.index()];
  }
  void set_register_state(RegId reg, TritWord value) {
    reg_state_[reg.index()] = value;
  }

  [[nodiscard]] const CompactNetlist& compact() const noexcept {
    return compact_;
  }

 private:
  [[nodiscard]] TritWord reg_output(std::uint32_t reg_index) const;
  /// One topological evaluation sweep; returns true if any net changed.
  bool sweep();

  CompactNetlist compact_;
  std::vector<TritWord> net_values_;
  std::vector<TritWord> reg_state_;
  std::vector<TritWord> input_values_;
};

}  // namespace mcrt
