#include "netlist/netlist.h"

#include <cassert>
#include <utility>

#include "base/strings.h"

namespace mcrt {

void Netlist::reserve(std::size_t nets, std::size_t nodes,
                      std::size_t registers) {
  nets_.reserve(nets);
  nodes_.reserve(nodes);
  registers_.reserve(registers);
}

NetId Netlist::add_net(std::string name) {
  touch();
  const NetId id{static_cast<NetId::value_type>(nets_.size())};
  if (name.empty()) name = str_format("n%u", id.value());
  nets_.push_back(Net{std::move(name), {}});
  return id;
}

NetId Netlist::add_input(std::string name) {
  touch();
  const NodeId node_id{static_cast<NodeId::value_type>(nodes_.size())};
  const NetId net_id = add_net(name);
  Node node;
  node.kind = NodeKind::kInput;
  node.output = net_id;
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  nets_[net_id.index()].driver = {NetDriver::Kind::kNode, node_id.value()};
  inputs_.push_back(node_id);
  return net_id;
}

NodeId Netlist::add_output(std::string name, NetId source) {
  touch();
  const NodeId node_id{static_cast<NodeId::value_type>(nodes_.size())};
  Node node;
  node.kind = NodeKind::kOutput;
  node.fanins = {source};
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  outputs_.push_back(node_id);
  return node_id;
}

NetId Netlist::add_lut(TruthTable function, std::vector<NetId> fanins,
                       std::string name) {
  touch();
  assert(function.input_count() == fanins.size());
  const NodeId node_id{static_cast<NodeId::value_type>(nodes_.size())};
  const NetId net_id = add_net(std::move(name));
  Node node;
  node.kind = NodeKind::kLut;
  node.function = function;
  node.fanins = std::move(fanins);
  node.output = net_id;
  node.name = nets_[net_id.index()].name;
  nodes_.push_back(std::move(node));
  nets_[net_id.index()].driver = {NetDriver::Kind::kNode, node_id.value()};
  return net_id;
}

NodeId Netlist::add_lut_driving(NetId output, TruthTable function,
                                std::vector<NetId> fanins) {
  touch();
  assert(function.input_count() == fanins.size());
  assert(nets_[output.index()].driver.kind == NetDriver::Kind::kNone);
  const NodeId node_id{static_cast<NodeId::value_type>(nodes_.size())};
  Node node;
  node.kind = NodeKind::kLut;
  node.function = function;
  node.fanins = std::move(fanins);
  node.output = output;
  node.name = nets_[output.index()].name;
  nodes_.push_back(std::move(node));
  nets_[output.index()].driver = {NetDriver::Kind::kNode, node_id.value()};
  return node_id;
}

NodeId Netlist::add_input_driving(NetId output) {
  touch();
  assert(nets_[output.index()].driver.kind == NetDriver::Kind::kNone);
  const NodeId node_id{static_cast<NodeId::value_type>(nodes_.size())};
  Node node;
  node.kind = NodeKind::kInput;
  node.output = output;
  node.name = nets_[output.index()].name;
  nodes_.push_back(std::move(node));
  nets_[output.index()].driver = {NetDriver::Kind::kNode, node_id.value()};
  inputs_.push_back(node_id);
  return node_id;
}

NetId Netlist::add_const(bool value, std::string name) {
  return add_lut(TruthTable::constant(value), {}, std::move(name));
}

NetId Netlist::add_register(Register spec) {
  touch();
  const RegId reg_id{static_cast<RegId::value_type>(registers_.size())};
  if (!spec.q.valid()) {
    spec.q = add_net(spec.name.empty()
                         ? str_format("ff%u", reg_id.value())
                         : spec.name + "_q");
  }
  assert(spec.sync_ctrl.valid() || spec.sync_val == ResetVal::kDontCare);
  assert(spec.async_ctrl.valid() || spec.async_val == ResetVal::kDontCare);
  nets_[spec.q.index()].driver = {NetDriver::Kind::kRegister, reg_id.value()};
  if (spec.name.empty()) spec.name = str_format("ff%u", reg_id.value());
  const NetId q = spec.q;
  registers_.push_back(std::move(spec));
  return q;
}

std::optional<bool> Netlist::const_value(NetId net_id) const {
  const NetDriver& driver = nets_[net_id.index()].driver;
  if (driver.kind != NetDriver::Kind::kNode) return std::nullopt;
  const Node& node = nodes_[driver.index];
  if (node.kind != NodeKind::kLut || !node.fanins.empty()) return std::nullopt;
  return node.function.eval(0);
}

std::vector<NetReaders> Netlist::build_reader_index() const {
  std::vector<NetReaders> readers(nets_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    for (std::uint32_t pin = 0; pin < node.fanins.size(); ++pin) {
      readers[node.fanins[pin].index()].node_pins.push_back(
          {NodeId{static_cast<std::uint32_t>(n)}, pin});
    }
  }
  for (std::size_t r = 0; r < registers_.size(); ++r) {
    const Register& ff = registers_[r];
    const RegId id{static_cast<std::uint32_t>(r)};
    if (ff.d.valid()) readers[ff.d.index()].reg_data.push_back(id);
    for (const NetId ctrl : {ff.clk, ff.en, ff.sync_ctrl, ff.async_ctrl}) {
      if (ctrl.valid()) readers[ctrl.index()].reg_control.push_back(id);
    }
  }
  return readers;
}

std::optional<std::vector<NodeId>> Netlist::combinational_order() const {
  // Kahn over node->node edges that do not pass through a register.
  std::vector<std::uint32_t> indegree(nodes_.size(), 0);
  auto driver_node = [&](NetId net_id) -> std::optional<NodeId> {
    const NetDriver& d = nets_[net_id.index()].driver;
    if (d.kind == NetDriver::Kind::kNode) return NodeId{d.index};
    return std::nullopt;  // register or undriven: sequential boundary
  };
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (const NetId fanin : nodes_[n].fanins) {
      if (driver_node(fanin)) ++indegree[n];
    }
  }
  // Reader index for forward propagation.
  const auto readers = build_reader_index();
  std::vector<NodeId> queue;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (indegree[n] == 0) queue.push_back(NodeId{static_cast<std::uint32_t>(n)});
  }
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!queue.empty()) {
    const NodeId v = queue.back();
    queue.pop_back();
    order.push_back(v);
    const Node& node = nodes_[v.index()];
    if (!node.output.valid()) continue;
    for (const auto& pin : readers[node.output.index()].node_pins) {
      if (--indegree[pin.node.index()] == 0) queue.push_back(pin.node);
    }
  }
  if (order.size() != nodes_.size()) return std::nullopt;
  // Keep only combinational nodes, in order.
  std::vector<NodeId> luts;
  for (const NodeId v : order) {
    if (nodes_[v.index()].kind == NodeKind::kLut) luts.push_back(v);
  }
  return luts;
}

std::vector<std::string> Netlist::validate() const {
  std::vector<std::string> problems;
  auto check_net = [&](NetId id, const std::string& what) {
    if (!id.valid() || id.index() >= nets_.size()) {
      problems.push_back("invalid net reference: " + what);
      return false;
    }
    return true;
  };
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    const std::string where = str_format("node %zu (%s)", n, node.name.c_str());
    if (node.kind == NodeKind::kLut &&
        node.function.input_count() != node.fanins.size()) {
      problems.push_back(where + ": truth table arity mismatch");
    }
    if (node.kind == NodeKind::kOutput && node.fanins.size() != 1) {
      problems.push_back(where + ": primary output must have one fanin");
    }
    if (node.kind != NodeKind::kOutput && !node.output.valid()) {
      problems.push_back(where + ": missing output net");
    }
    for (const NetId f : node.fanins) check_net(f, where + " fanin");
    if (node.output.valid() && check_net(node.output, where + " output")) {
      const NetDriver& d = nets_[node.output.index()].driver;
      if (d.kind != NetDriver::Kind::kNode || d.index != n) {
        problems.push_back(where + ": output net driver mismatch");
      }
    }
  }
  for (std::size_t r = 0; r < registers_.size(); ++r) {
    const Register& ff = registers_[r];
    const std::string where = str_format("register %zu (%s)", r, ff.name.c_str());
    check_net(ff.d, where + " D");
    check_net(ff.q, where + " Q");
    check_net(ff.clk, where + " clk");
    if (ff.q.valid() && ff.q.index() < nets_.size()) {
      const NetDriver& d = nets_[ff.q.index()].driver;
      if (d.kind != NetDriver::Kind::kRegister || d.index != r) {
        problems.push_back(where + ": Q net driver mismatch");
      }
    }
    if (!ff.sync_ctrl.valid() && ff.sync_val != ResetVal::kDontCare) {
      problems.push_back(where + ": sync value without sync control");
    }
    if (!ff.async_ctrl.valid() && ff.async_val != ResetVal::kDontCare) {
      problems.push_back(where + ": async value without async control");
    }
  }
  // Every net must have a driver (undriven nets break simulation).
  for (std::size_t n = 0; n < nets_.size(); ++n) {
    if (nets_[n].driver.kind == NetDriver::Kind::kNone) {
      problems.push_back(
          str_format("net %zu (%s) has no driver", n, nets_[n].name.c_str()));
    }
  }
  if (!combinational_order()) {
    problems.push_back("combinational cycle detected");
  }
  return problems;
}

Netlist::Stats Netlist::stats() const {
  Stats s;
  s.inputs = inputs_.size();
  s.outputs = outputs_.size();
  s.registers = registers_.size();
  for (const Node& node : nodes_) {
    if (node.kind != NodeKind::kLut) continue;
    if (node.fanins.empty()) {
      ++s.constants;
    } else {
      ++s.luts;
    }
  }
  for (const Register& ff : registers_) {
    if (ff.en.valid()) ++s.with_en;
    if (ff.sync_ctrl.valid()) ++s.with_sync;
    if (ff.async_ctrl.valid()) ++s.with_async;
  }
  return s;
}

void set_default_lut_delays(Netlist& netlist, std::int64_t delay) {
  for (std::uint32_t v = 0; v < netlist.node_count(); ++v) {
    const NodeId id{v};
    const Node& node = std::as_const(netlist).node(id);
    if (node.kind == NodeKind::kLut && !node.fanins.empty() &&
        node.delay == 0) {
      netlist.set_node_delay(id, delay);
    }
  }
}

}  // namespace mcrt
