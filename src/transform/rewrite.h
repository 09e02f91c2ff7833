// Shared scaffolding for netlist-to-netlist rewrites.
//
// All structural transforms in this library (control decomposition, sweep,
// register relocation) rebuild a fresh netlist rather than mutating in
// place; NetlistCopier centralizes the bookkeeping: copy PIs, pre-create
// register output nets (so combinational logic can reference them),
// copy combinational nodes in topological order with a per-node hook, then
// copy registers with a per-register hook, and finally the POs.
#pragma once

#include <functional>
#include <unordered_map>

#include "netlist/netlist.h"

namespace mcrt {

class NetlistCopier {
 public:
  explicit NetlistCopier(const Netlist& input) : input_(input) {}

  /// New net corresponding to `old_net`. Valid once the copy pass reaches
  /// the net's driver (sources are mapped up front).
  [[nodiscard]] NetId mapped(NetId old_net) const {
    return map_.at(old_net.value());
  }
  void set_mapped(NetId old_net, NetId new_net) {
    map_[old_net.value()] = new_net;
  }

  Netlist& output() noexcept { return output_; }
  const Netlist& input() const noexcept { return input_; }

  /// Hook deciding what a combinational node becomes; default copies it.
  /// Receives the node and its already-mapped fanins; returns the new net
  /// standing for the node's output.
  using NodeHook =
      std::function<NetId(const Node&, const std::vector<NetId>&)>;
  /// Hook deciding what a register becomes. Receives the register with all
  /// net fields already remapped (q field = the pre-created output net);
  /// must install a driver for that q net (add_register or otherwise).
  using RegisterHook = std::function<void(const Register&)>;

  /// Runs the full copy. Either hook may be empty (straight copy).
  /// Returns the rebuilt netlist.
  Netlist run(const NodeHook& node_hook, const RegisterHook& register_hook);

 private:
  const Netlist& input_;
  Netlist output_;
  std::unordered_map<std::uint32_t, NetId> map_;
};

}  // namespace mcrt
