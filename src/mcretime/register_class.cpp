#include "mcretime/register_class.h"

#include <map>
#include <optional>
#include <unordered_map>

#include "bdd/bdd.h"
#include "bdd/truth_table_bdd.h"

namespace mcrt {
namespace {

/// Builds BDDs for control cones, cutting at the sequential boundary.
class ControlConeAnalyzer {
 public:
  ControlConeAnalyzer(const Netlist& netlist, std::size_t budget)
      : netlist_(netlist), budget_(budget) {}

  /// Semantic key of a control net: equal keys <=> equivalent functions
  /// (over the boundary cut). Nets whose cones blow the budget get unique
  /// negative keys (structural fallback).
  std::int64_t semantic_key(NetId net) {
    const auto ref = cone_bdd(net);
    if (ref) return static_cast<std::int64_t>(*ref);
    return -static_cast<std::int64_t>(net.value()) - 1;
  }

  /// Key for an absent control with default constant value.
  std::int64_t constant_key(bool value) {
    return value ? BddManager::kTrue : BddManager::kFalse;
  }

 private:
  std::optional<BddRef> cone_bdd(NetId net) {
    if (auto it = memo_.find(net.value()); it != memo_.end()) {
      return it->second;
    }
    if (bdd_.node_count() > budget_) return std::nullopt;
    const NetDriver& driver = netlist_.net(net).driver;
    std::optional<BddRef> result;
    if (driver.kind == NetDriver::Kind::kRegister) {
      result = boundary_var(net);
    } else if (driver.kind == NetDriver::Kind::kNode) {
      const Node& node = netlist_.node(NodeId{driver.index});
      if (node.kind == NodeKind::kInput) {
        result = boundary_var(net);
      } else {
        // Combinational: compose fanin BDDs through the truth table.
        std::vector<BddRef> fanins;
        fanins.reserve(node.fanins.size());
        for (const NetId f : node.fanins) {
          const auto sub = cone_bdd(f);
          if (!sub) return std::nullopt;
          fanins.push_back(*sub);
        }
        result = table_bdd(bdd_, node.function, fanins);
      }
    } else {
      return std::nullopt;  // undriven: should not happen post-validate
    }
    if (result) memo_[net.value()] = *result;
    return result;
  }

  BddRef boundary_var(NetId net) {
    auto it = boundary_.find(net.value());
    if (it == boundary_.end()) {
      const std::uint32_t var = next_var_++;
      it = boundary_.emplace(net.value(), bdd_.var(var)).first;
    }
    return it->second;
  }

  const Netlist& netlist_;
  std::size_t budget_;
  BddManager bdd_;
  std::unordered_map<std::uint32_t, BddRef> memo_;
  std::unordered_map<std::uint32_t, BddRef> boundary_;
  std::uint32_t next_var_ = 0;
};

}  // namespace

ClassAssignment classify_registers(const Netlist& netlist,
                                   const ClassOptions& options) {
  ClassAssignment result;
  result.reg_class.resize(netlist.register_count());
  ControlConeAnalyzer cones(netlist, options.bdd_node_budget);

  using Key = std::array<std::int64_t, 4>;
  std::map<Key, ClassId> classes;
  for (std::size_t r = 0; r < netlist.register_count(); ++r) {
    const Register& ff = netlist.registers()[r];
    Key key;
    key[0] = cones.semantic_key(ff.clk);
    key[1] = ff.en.valid() ? cones.semantic_key(ff.en)
                           : cones.constant_key(true);
    key[2] = ff.sync_ctrl.valid() ? cones.semantic_key(ff.sync_ctrl)
                                  : cones.constant_key(false);
    key[3] = ff.async_ctrl.valid() ? cones.semantic_key(ff.async_ctrl)
                                   : cones.constant_key(false);
    auto [it, inserted] =
        classes.emplace(key, ClassId{static_cast<std::uint32_t>(
                                 result.classes.size())});
    if (inserted) {
      result.classes.push_back(
          {ff.clk, ff.en, ff.sync_ctrl, ff.async_ctrl});
    }
    result.reg_class[r] = it->second;
  }
  return result;
}

}  // namespace mcrt
