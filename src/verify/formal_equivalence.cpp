#include "verify/formal_equivalence.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <optional>
#include <unordered_map>

#include "base/strings.h"
#include "bdd/bdd.h"
#include "bdd/truth_table_bdd.h"
#include "sim/equivalence.h"

namespace mcrt {
namespace {

/// Symbolic encoding of one netlist over a shared BddManager.
/// Variable layout (created by the caller): current-state vars and
/// next-state vars per register, input vars shared by input name.
class SymbolicMachine {
 public:
  SymbolicMachine(const Netlist& netlist, BddManager& bdd,
                  const std::unordered_map<std::string, BddRef>& input_vars,
                  std::uint32_t first_state_var)
      : netlist_(netlist), bdd_(bdd) {
    for (std::size_t r = 0; r < netlist.register_count(); ++r) {
      state_vars_.push_back(
          bdd.var(first_state_var + static_cast<std::uint32_t>(r)));
    }
    for (const NodeId in : netlist.inputs()) {
      input_of_net_[netlist.node(in).output.value()] =
          input_vars.at(netlist.node(in).name);
    }
  }

  [[nodiscard]] std::uint32_t state_bits() const {
    return static_cast<std::uint32_t>(state_vars_.size());
  }
  [[nodiscard]] BddRef state_var(std::size_t r) const {
    return state_vars_[r];
  }

  /// Effective register output (async override applied).
  BddRef q_eff(std::size_t r) {
    if (auto it = q_eff_.find(r); it != q_eff_.end()) {
      if (it->second == kBuilding) {
        throw std::domain_error(
            "asynchronous controls form a combinational cycle");
      }
      return it->second;
    }
    q_eff_[r] = kBuilding;
    const Register& ff = netlist_.registers()[r];
    BddRef result = state_vars_[r];
    if (ff.async_ctrl.valid()) {
      const BddRef async = net_bdd(ff.async_ctrl);
      const BddRef forced = ff.async_val == ResetVal::kOne
                                ? BddManager::kTrue
                                : BddManager::kFalse;
      result = bdd_.ite(async, forced, result);
    }
    q_eff_[r] = result;
    return result;
  }

  /// Next-state function of register r over (state, input) vars.
  BddRef next_state(std::size_t r) {
    const Register& ff = netlist_.registers()[r];
    BddRef value = net_bdd(ff.d);
    if (ff.en.valid()) {
      value = bdd_.ite(net_bdd(ff.en), value, q_eff(r));
    }
    if (ff.sync_ctrl.valid()) {
      const BddRef forced = ff.sync_val == ResetVal::kOne
                                ? BddManager::kTrue
                                : BddManager::kFalse;
      value = bdd_.ite(net_bdd(ff.sync_ctrl), forced, value);
    }
    if (ff.async_ctrl.valid()) {
      const BddRef forced = ff.async_val == ResetVal::kOne
                                ? BddManager::kTrue
                                : BddManager::kFalse;
      value = bdd_.ite(net_bdd(ff.async_ctrl), forced, value);
    }
    return value;
  }

  /// Function of a primary output, by position.
  BddRef output(std::size_t index) {
    return net_bdd(netlist_.node(netlist_.outputs()[index]).fanins[0]);
  }

  /// Function of an arbitrary net over (state, input) vars.
  BddRef net_bdd(NetId net) {
    if (auto it = net_cache_.find(net.value()); it != net_cache_.end()) {
      return it->second;
    }
    const NetDriver& driver = netlist_.net(net).driver;
    BddRef result;
    if (driver.kind == NetDriver::Kind::kRegister) {
      result = q_eff(driver.index);
    } else {
      const Node& node = netlist_.node(NodeId{driver.index});
      if (node.kind == NodeKind::kInput) {
        result = input_of_net_.at(net.value());
      } else {
        std::vector<BddRef> fanins;
        fanins.reserve(node.fanins.size());
        for (const NetId f : node.fanins) fanins.push_back(net_bdd(f));
        result = table_bdd(bdd_, node.function, fanins);
      }
    }
    net_cache_[net.value()] = result;
    return result;
  }

 private:
  static constexpr BddRef kBuilding = ~BddRef{0};

  const Netlist& netlist_;
  BddManager& bdd_;
  std::vector<BddRef> state_vars_;
  std::unordered_map<std::uint32_t, BddRef> input_of_net_;
  std::unordered_map<std::size_t, BddRef> q_eff_;
  std::unordered_map<std::uint32_t, BddRef> net_cache_;
};

}  // namespace

FormalResult check_formal_equivalence(const Netlist& a, const Netlist& b,
                                      const FormalOptions& options) {
  FormalResult result;

  // --- interface matching ---------------------------------------------------
  std::map<std::string, int> input_names;
  for (const NodeId in : a.inputs()) input_names[a.node(in).name] |= 1;
  for (const NodeId in : b.inputs()) input_names[b.node(in).name] |= 2;
  for (const auto& [name, mask] : input_names) {
    if (mask != 3) {
      result.detail = "input mismatch: " + name;
      return result;
    }
  }
  std::map<std::string, std::size_t> a_outputs;
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    a_outputs[a.node(a.outputs()[i]).name] = i;
  }
  std::vector<std::pair<std::size_t, std::size_t>> output_pairs;
  for (std::size_t i = 0; i < b.outputs().size(); ++i) {
    const auto it = a_outputs.find(b.node(b.outputs()[i]).name);
    if (it == a_outputs.end()) {
      result.detail = "output mismatch: " + b.node(b.outputs()[i]).name;
      return result;
    }
    output_pairs.push_back({it->second, i});
  }

  const std::size_t state_bits = a.register_count() + b.register_count();
  if (state_bits > options.max_state_bits) {
    result.detail = str_format("too many state bits (%zu > %zu)", state_bits,
                               options.max_state_bits);
    return result;
  }

  // --- variable layout --------------------------------------------------
  // [0, S): current state (A then B); [S, 2S): next state; [2S, ...): inputs.
  BddManager bdd;
  bdd.set_node_limit(options.max_bdd_nodes);
  bdd.set_cancel(options.cancel);
  const auto s_total = static_cast<std::uint32_t>(state_bits);
  std::unordered_map<std::string, BddRef> input_vars;
  std::vector<std::string> reset_like;
  {
    std::uint32_t next_input_var = 2 * s_total;
    for (const auto& [name, mask] : input_names) {
      input_vars[name] = bdd.var(next_input_var++);
      const bool is_reset =
          options.reset_inputs.empty()
              ? looks_like_reset(name)
              : std::find(options.reset_inputs.begin(),
                          options.reset_inputs.end(),
                          name) != options.reset_inputs.end();
      if (is_reset) reset_like.push_back(name);
    }
  }

  try {
    SymbolicMachine ma(a, bdd, input_vars, 0);
    SymbolicMachine mb(b, bdd, input_vars,
                       static_cast<std::uint32_t>(a.register_count()));

    // Transition relation: conj over registers of (next_i == N_i).
    BddRef transition = BddManager::kTrue;
    for (std::size_t r = 0; r < a.register_count(); ++r) {
      const BddRef next_var = bdd.var(s_total + static_cast<std::uint32_t>(r));
      transition =
          bdd.bdd_and(transition, bdd.bdd_xnor(next_var, ma.next_state(r)));
    }
    for (std::size_t r = 0; r < b.register_count(); ++r) {
      const BddRef next_var = bdd.var(
          s_total + static_cast<std::uint32_t>(a.register_count() + r));
      transition =
          bdd.bdd_and(transition, bdd.bdd_xnor(next_var, mb.next_state(r)));
    }
    // Reset-prefix input constraint.
    BddRef reset_constraint = BddManager::kTrue;
    for (const std::string& name : reset_like) {
      reset_constraint = bdd.bdd_and(reset_constraint, input_vars.at(name));
    }
    BddRef run_constraint = BddManager::kTrue;
    for (const std::string& name : reset_like) {
      run_constraint =
          bdd.bdd_and(run_constraint, bdd.bdd_not(input_vars.at(name)));
    }

    auto image = [&](BddRef states, BddRef input_constraint) {
      BddRef conj = bdd.bdd_and(bdd.bdd_and(states, input_constraint),
                                transition);
      // Quantify current state and inputs (inputs occupy the contiguous
      // index range starting at 2*s_total, in creation order).
      for (std::uint32_t v = 0; v < s_total; ++v) conj = bdd.exists(conj, v);
      for (std::uint32_t v = 2 * s_total;
           v < 2 * s_total + input_vars.size(); ++v) {
        conj = bdd.exists(conj, v);
      }
      // Rename next -> current.
      for (std::uint32_t r = 0; r < s_total; ++r) {
        conj = bdd.compose(conj, s_total + r, bdd.var(r));
      }
      return conj;
    };

    // Reset prefix from the universal state set.
    BddRef reachable = BddManager::kTrue;
    for (std::size_t i = 0; i < options.reset_cycles; ++i) {
      reachable = image(reachable, reset_constraint);
      ++result.iterations;
    }
    // Mismatch condition over (state, input).
    BddRef mismatch = BddManager::kFalse;
    for (const auto& [ia, ib] : output_pairs) {
      mismatch = bdd.bdd_or(mismatch,
                            bdd.bdd_xor(ma.output(ia), mb.output(ib)));
    }
    // Fixpoint with run-phase inputs (resets deasserted).
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
      poll_cancel(options.cancel);
      const BddRef bad =
          bdd.bdd_and(bdd.bdd_and(reachable, run_constraint), mismatch);
      if (bad != BddManager::kFalse) {
        result.verdict = FormalResult::Verdict::kMismatch;
        result.detail = "distinguishing reachable state exists";
        return result;
      }
      const BddRef next = bdd.bdd_or(reachable, image(reachable, run_constraint));
      ++result.iterations;
      if (next == reachable) {
        result.verdict = FormalResult::Verdict::kEquivalent;
        result.detail = str_format("fixpoint after %zu images",
                                   result.iterations);
        return result;
      }
      reachable = next;
    }
    result.detail = "no fixpoint within iteration cap";
    return result;
  } catch (const std::domain_error& e) {
    result.detail = e.what();
    return result;
  } catch (const ResourceLimitError& limit) {
    result.detail = limit.what();
    return result;
  }
}

}  // namespace mcrt
