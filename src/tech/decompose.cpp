#include "tech/decompose.h"

#include <array>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <unordered_map>

namespace mcrt {
namespace {

/// Rebuilds a netlist while decomposing functions; shares common subterms
/// per (function, fanins) via structural hashing.
class Decomposer {
 public:
  explicit Decomposer(const Netlist& input)
      : input_(input), net_map_(input.net_count()) {}

  Netlist run() {
    for (const NodeId in : input_.inputs()) {
      map_net(input_.node(in).output,
              output_.add_input(input_.node(in).name));
    }
    // Register Q nets are sequential sources: pre-create their nets so
    // combinational logic can reference them before the registers exist.
    for (const Register& ff : input_.registers()) {
      map_net(ff.q, output_.add_net(input_.net(ff.q).name));
    }
    const auto order = input_.combinational_order();
    if (!order) throw std::invalid_argument("decompose: cyclic netlist");
    for (const NodeId id : *order) {
      const Node& node = input_.node(id);
      std::vector<NetId> fanins;
      fanins.reserve(node.fanins.size());
      for (const NetId f : node.fanins) fanins.push_back(mapped(f));
      map_net(node.output, build(node.function, fanins));
    }
    for (const Register& ff : input_.registers()) {
      Register spec;
      spec.d = mapped(ff.d);
      spec.q = mapped(ff.q);
      spec.clk = mapped(ff.clk);
      if (ff.en.valid()) spec.en = mapped(ff.en);
      if (ff.sync_ctrl.valid()) spec.sync_ctrl = mapped(ff.sync_ctrl);
      if (ff.async_ctrl.valid()) spec.async_ctrl = mapped(ff.async_ctrl);
      spec.sync_val = ff.sync_val;
      spec.async_val = ff.async_val;
      spec.name = ff.name;
      output_.add_register(std::move(spec));
    }
    for (const NodeId po : input_.outputs()) {
      const Node& node = input_.node(po);
      output_.add_output(node.name, mapped(node.fanins[0]));
    }
    return std::move(output_);
  }

 private:
  void map_net(NetId old_net, NetId new_net) {
    net_map_[old_net.index()] = new_net;
  }

  /// The output net of an input net that is already mapped.
  NetId mapped(NetId old_net) const {
    const NetId net = net_map_[old_net.index()];
    if (!net.valid()) {
      throw std::logic_error("decompose: net read before it is driven");
    }
    return net;
  }

  NetId const_net(bool value) {
    NetId& cached = value ? const1_ : const0_;
    if (!cached.valid()) cached = output_.add_const(value);
    return cached;
  }

  /// Constant value of a net in the *output* netlist, if known.
  std::optional<bool> known_const(NetId net) const {
    if (net == const0_) return false;
    if (net == const1_) return true;
    return output_.const_value(net);
  }

  /// Hash-consed 1- or 2-input node creation.
  NetId emit(const TruthTable& tt, std::vector<NetId> fanins) {
    assert(tt.input_count() <= 2);
    // Local simplifications.
    if (tt.is_const(false)) return const_net(false);
    if (tt.is_const(true)) return const_net(true);
    for (std::uint32_t i = 0; i < tt.input_count(); ++i) {
      // Constant fanins fold into the function.
      if (const auto c = known_const(fanins[i])) {
        std::vector<NetId> reduced;
        for (std::uint32_t j = 0; j < fanins.size(); ++j) {
          if (j != i) reduced.push_back(fanins[j]);
        }
        return emit(tt.cofactor(i, *c), std::move(reduced));
      }
      if (tt.input_redundant(i)) {
        std::vector<NetId> reduced;
        for (std::uint32_t j = 0; j < fanins.size(); ++j) {
          if (j != i) reduced.push_back(fanins[j]);
        }
        return emit(tt.cofactor(i, false), std::move(reduced));
      }
    }
    // Duplicate fanins collapse: f(a, a) is a 1-input function of a.
    if (fanins.size() == 2 && fanins[0] == fanins[1]) {
      std::uint64_t bits = 0;
      if (tt.eval(0b00)) bits |= 1;
      if (tt.eval(0b11)) bits |= 2;
      return emit(TruthTable(1, bits), {fanins[0]});
    }
    if (tt == TruthTable::buffer()) return fanins[0];
    const CseKey key = make_key(tt, fanins);
    if (auto it = cse_.find(key); it != cse_.end()) return it->second;
    const NetId result = output_.add_lut(tt, std::move(fanins));
    cse_.emplace(key, result);
    return result;
  }

  // Exact structural key: (truth bits, arity, fanin ids). Must be collision
  // free - merging two structurally different nodes would corrupt logic.
  using CseKey = std::array<std::uint64_t, 2>;
  static CseKey make_key(const TruthTable& tt,
                         const std::vector<NetId>& fanins) {
    CseKey key{};
    key[0] = (tt.bits() << 8) | tt.input_count();
    const std::uint64_t f0 = fanins.empty() ? ~0ull >> 32 : fanins[0].value();
    const std::uint64_t f1 =
        fanins.size() < 2 ? ~0ull >> 32 : fanins[1].value();
    key[1] = (f0 << 32) | f1;
    return key;
  }
  /// Mixes both key words (the table compares whole keys, so a hash
  /// collision costs a probe, never a merge).
  struct CseKeyHash {
    std::size_t operator()(const CseKey& key) const noexcept {
      std::uint64_t h = key[0] * 0x9e3779b97f4a7c15ull ^ key[1];
      h = (h ^ (h >> 31)) * 0xbf58476d1ce4e5b9ull;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };

  /// Recursive Shannon decomposition into INV/AND2/OR2.
  NetId build(const TruthTable& tt, const std::vector<NetId>& fanins) {
    if (tt.input_count() <= 2) return emit(tt, fanins);
    // Expand on the last input (keeps remaining indices stable).
    const std::uint32_t split = tt.input_count() - 1;
    std::vector<NetId> rest(fanins.begin(), fanins.end() - 1);
    const NetId x = fanins[split];
    const TruthTable f0 = tt.cofactor(split, false);
    const TruthTable f1 = tt.cofactor(split, true);
    const NetId low = build(f0, rest);
    const NetId high = build(f1, rest);
    if (low == high) return low;
    // f = (x & high) | (~x & low)
    const NetId xn = emit(TruthTable::inverter(), {x});
    const NetId a = emit(TruthTable::and_n(2), {x, high});
    const NetId b = emit(TruthTable::and_n(2), {xn, low});
    return emit(TruthTable::or_n(2), {a, b});
  }

  const Netlist& input_;
  Netlist output_;
  std::vector<NetId> net_map_;  ///< input net index -> output net
  std::unordered_map<CseKey, NetId, CseKeyHash> cse_;
  NetId const0_;
  NetId const1_;
};

}  // namespace

Netlist decompose_to_binary(const Netlist& input) {
  return Decomposer(input).run();
}

}  // namespace mcrt
