// Gate-level sequential netlist with generic multiple-class registers.
//
// This is the circuit representation of the whole library: a network of
// single-output combinational nodes (LUTs / truth tables), primary inputs
// and outputs, and *generic registers* in the sense of the paper's Fig. 2a:
//
//        +--------+
//   D ---|D      Q|--- Q
//   EN --|EN      |        synchronous load enable (absent = always load)
//   SS --|SS / SC |        synchronous set/clear   (value in sync_val)
//   AS --|AS / AC |        asynchronous set/clear  (value in async_val)
//  clk --|>       |
//        +--------+
//
// Register semantics (used by the simulator and preserved by retiming):
//   - while async_ctrl == 1: Q = async_val (dominates everything);
//   - at a clock edge: if sync_ctrl == 1 then Q' = sync_val
//                      else if EN == 1 (or EN absent) then Q' = D
//                      else Q' = Q.
//
// The netlist is a value type: copyable, no hidden global state.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/ids.h"
#include "netlist/truth_table.h"

namespace mcrt {

struct StructuralHash;

/// Reset value of a register: '0', '1' or '-' (don't care / absent).
enum class ResetVal : std::uint8_t { kZero = 0, kOne = 1, kDontCare = 2 };

[[nodiscard]] constexpr char reset_val_char(ResetVal v) noexcept {
  return v == ResetVal::kZero ? '0' : (v == ResetVal::kOne ? '1' : '-');
}

/// The value one register can hold for both `a` and `b`: the concrete value
/// when they agree or one is '-' (which absorbs), std::nullopt on a 0/1
/// clash. Reset-value merging (relocation, rebuild, register sweep) is
/// this rule.
[[nodiscard]] constexpr std::optional<ResetVal> merge_reset_value(
    ResetVal a, ResetVal b) noexcept {
  if (a == ResetVal::kDontCare) return b;
  if (b == ResetVal::kDontCare || a == b) return a;
  return std::nullopt;
}

[[nodiscard]] constexpr Trit reset_val_trit(ResetVal v) noexcept {
  switch (v) {
    case ResetVal::kZero: return Trit::kZero;
    case ResetVal::kOne: return Trit::kOne;
    case ResetVal::kDontCare: return Trit::kUnknown;
  }
  return Trit::kUnknown;
}

/// Who drives a net.
struct NetDriver {
  enum class Kind : std::uint8_t { kNone, kNode, kRegister } kind = Kind::kNone;
  std::uint32_t index = 0;  ///< NodeId or RegId value depending on kind
};

enum class NodeKind : std::uint8_t {
  kInput,   ///< primary input: no fanins, drives one net
  kOutput,  ///< primary output: one fanin, no output net
  kLut      ///< combinational node: truth table over fanins (0-input = const)
};

struct Node {
  NodeKind kind = NodeKind::kLut;
  TruthTable function;          ///< meaningful for kLut only
  std::vector<NetId> fanins;    ///< input nets (order matches function)
  NetId output;                 ///< driven net (invalid for kOutput)
  std::int64_t delay = 0;       ///< propagation delay d(v), set by tech map
  std::string name;
};

/// Generic register (paper Fig. 2a). Control inputs that are absent hold an
/// invalid NetId; the matching reset value must then be kDontCare.
struct Register {
  NetId d;
  NetId q;
  NetId clk;                            ///< required
  NetId en;                             ///< invalid = always enabled
  NetId sync_ctrl;                      ///< invalid = no sync set/clear
  NetId async_ctrl;                     ///< invalid = no async set/clear
  ResetVal sync_val = ResetVal::kDontCare;   ///< s in the paper
  ResetVal async_val = ResetVal::kDontCare;  ///< a in the paper
  std::string name;
};

struct Net {
  std::string name;
  NetDriver driver;
};

/// How a net is consumed: node pins, register data pins, register control
/// pins. Built on demand by Netlist::build_reader_index().
struct NetReaders {
  struct NodePin {
    NodeId node;
    std::uint32_t pin;
  };
  std::vector<NodePin> node_pins;
  std::vector<RegId> reg_data;  ///< registers whose D is this net
  /// Registers using the net as clk/en/sync/async control.
  std::vector<RegId> reg_control;
};

class Netlist {
 public:
  // --- construction -------------------------------------------------------
  /// Pre-sizes the backing vectors (BLIF headers and workload profiles know
  /// their element counts up front; reserving avoids reallocation churn).
  void reserve(std::size_t nets, std::size_t nodes, std::size_t registers);

  NetId add_net(std::string name = {});
  NetId add_input(std::string name);
  NodeId add_output(std::string name, NetId source);
  /// Adds a combinational node; returns the net it drives.
  NetId add_lut(TruthTable function, std::vector<NetId> fanins,
                std::string name = {});
  /// Adds a combinational node driving the pre-created (undriven) net
  /// `output`. Used by parsers that see net names before their drivers.
  NodeId add_lut_driving(NetId output, TruthTable function,
                         std::vector<NetId> fanins);
  /// Adds a primary input driving the pre-created (undriven) net `output`.
  NodeId add_input_driving(NetId output);
  NetId add_const(bool value, std::string name = {});
  /// Adds a register; `spec.q` is ignored and a fresh net is created unless
  /// `spec.q` is valid (then the register drives that pre-made net).
  /// Returns the Q net.
  NetId add_register(Register spec);

  // --- access --------------------------------------------------------------
  [[nodiscard]] std::size_t net_count() const noexcept { return nets_.size(); }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t register_count() const noexcept {
    return registers_.size();
  }

  [[nodiscard]] const Net& net(NetId id) const { return nets_[id.index()]; }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id.index()]; }
  [[nodiscard]] const Register& reg(RegId id) const {
    return registers_[id.index()];
  }
  // Non-const access conservatively counts as a mutation (the caller can
  // rewrite fanins, functions or control wiring through the reference).
  [[nodiscard]] Node& node(NodeId id) {
    touch();
    return nodes_[id.index()];
  }
  [[nodiscard]] Register& reg(RegId id) {
    touch();
    return registers_[id.index()];
  }

  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::span<const Register> registers() const noexcept {
    return registers_;
  }

  [[nodiscard]] const std::vector<NodeId>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const std::vector<NodeId>& outputs() const noexcept {
    return outputs_;
  }

  /// Driver of `net` if it is a 0-input constant LUT.
  [[nodiscard]] std::optional<bool> const_value(NetId net) const;

  void set_node_delay(NodeId id, std::int64_t delay) {
    touch();
    nodes_[id.index()].delay = delay;
  }

  /// Monotone mutation counter. Bumped by every mutating method (including
  /// non-const node()/reg() access); derived views such as CompactNetlist
  /// record the revision they were built at and compare it to detect
  /// staleness. Copies keep the source's revision.
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

  // --- analysis ------------------------------------------------------------
  /// Per-net reader lists; recomputed from scratch at each call.
  [[nodiscard]] std::vector<NetReaders> build_reader_index() const;

  /// Combinational nodes (kLut) in topological order; std::nullopt if a
  /// combinational cycle exists.
  [[nodiscard]] std::optional<std::vector<NodeId>> combinational_order() const;

  /// Structural sanity checks; returns human-readable problems (empty = ok).
  [[nodiscard]] std::vector<std::string> validate() const;

  struct Stats {
    std::size_t inputs = 0;
    std::size_t outputs = 0;
    std::size_t luts = 0;       ///< kLut nodes with >= 1 input
    std::size_t constants = 0;  ///< 0-input kLut nodes
    std::size_t registers = 0;
    std::size_t with_en = 0;
    std::size_t with_sync = 0;
    std::size_t with_async = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  // Invalidation hook shared by every mutating method: bumps the revision
  // (staleness detection for CompactNetlist and friends) and drops the
  // memoized structural hash. Not thread-safe; a Netlist is single-writer
  // by design (docs/INTERNALS.md#compact-core).
  void touch() noexcept {
    ++revision_;
    hash_valid_ = false;
  }

  // structural_hash() memoizes its digest here (lazily, invalidated by
  // touch()) so repeated hashing of an unchanged netlist is O(1) after
  // the first call.
  friend StructuralHash structural_hash(const Netlist& netlist);

  std::vector<Net> nets_;
  std::vector<Node> nodes_;
  std::vector<Register> registers_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::uint64_t revision_ = 0;
  mutable bool hash_valid_ = false;
  mutable std::uint64_t hash_hi_ = 0;
  mutable std::uint64_t hash_lo_ = 0;
};

/// Gives every delay-less LUT with at least one input the delay `delay`.
/// BLIF files and generated workloads carry no delays, so this is how the
/// retime passes and `mcrt timing` make the period objective meaningful;
/// LUTs that already have a delay (a mapped netlist) and constants keep
/// theirs.
void set_default_lut_delays(Netlist& netlist, std::int64_t delay);

}  // namespace mcrt
