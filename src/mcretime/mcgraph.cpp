#include "mcretime/mcgraph.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "base/strings.h"

namespace mcrt {

VertexId McGraph::add_vertex(McVertexKind kind, std::int64_t delay,
                             NodeId origin, NetId tap) {
  const VertexId v = graph_.add_vertex();
  kind_.push_back(kind);
  delay_.push_back(delay);
  origin_node_.push_back(origin);
  tap_net_.push_back(tap);
  return v;
}

EdgeId McGraph::add_edge(VertexId from, VertexId to, std::vector<McReg> regs,
                         std::uint32_t sink_pin) {
  const EdgeId e = graph_.add_edge(from, to);
  regs_.push_back(std::move(regs));
  sink_pin_.push_back(sink_pin);
  return e;
}

std::optional<ClassId> McGraph::step_class(VertexId v,
                                           StepDirection dir) const {
  return step_class(v, dir, [&](EdgeId e) -> std::optional<ClassId> {
    const auto& regs = regs_[e.index()];
    if (regs.empty()) return std::nullopt;
    return dir == StepDirection::kBackward ? regs.front().cls
                                           : regs.back().cls;
  });
}

std::vector<std::uint32_t> McGraph::apply_backward_step(VertexId v) {
  const auto cls = backward_step_class(v);
  if (!cls) throw std::logic_error("invalid backward mc-step");
  for (const EdgeId e : graph_.out_edges(v)) {
    auto& regs = regs_[e.index()];
    regs.erase(regs.begin());
  }
  std::vector<std::uint32_t> created;
  for (const EdgeId e : graph_.in_edges(v)) {
    McReg reg;
    reg.cls = *cls;
    reg.uid = fresh_uid();
    created.push_back(reg.uid);
    regs_[e.index()].push_back(reg);
  }
  return created;
}

std::vector<std::uint32_t> McGraph::apply_forward_step(VertexId v) {
  const auto cls = forward_step_class(v);
  if (!cls) throw std::logic_error("invalid forward mc-step");
  for (const EdgeId e : graph_.in_edges(v)) {
    regs_[e.index()].pop_back();
  }
  std::vector<std::uint32_t> created;
  for (const EdgeId e : graph_.out_edges(v)) {
    McReg reg;
    reg.cls = *cls;
    reg.uid = fresh_uid();
    created.push_back(reg.uid);
    regs_[e.index()].insert(regs_[e.index()].begin(), reg);
  }
  return created;
}

std::size_t McGraph::total_edge_registers() const {
  std::size_t total = 0;
  for (const auto& regs : regs_) total += regs.size();
  return total;
}

std::vector<std::string> McGraph::validate() const {
  std::vector<std::string> problems;
  if (vertex_count() == 0 || kind_[0] != McVertexKind::kHost) {
    problems.push_back("vertex 0 must be the host");
    return problems;
  }
  for (std::size_t v = 1; v < vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    switch (kind_[v]) {
      case McVertexKind::kInput:
        if (graph_.in_degree(vid) != 1) {
          problems.push_back(str_format("input vertex %zu in-degree != 1", v));
        }
        break;
      case McVertexKind::kOutput:
      case McVertexKind::kControlTap:
        if (graph_.out_degree(vid) != 1) {
          problems.push_back(
              str_format("sink vertex %zu out-degree != 1", v));
        }
        break;
      case McVertexKind::kSeparator:
        if (graph_.in_degree(vid) != 1 || graph_.out_degree(vid) != 1) {
          problems.push_back(str_format("separator %zu must be 1-in-1-out", v));
        }
        break;
      default:
        break;
    }
  }
  for (std::size_t e = 0; e < graph_.edge_count(); ++e) {
    for (const McReg& reg : regs_[e]) {
      if (reg.cls.index() >= classes_.class_count()) {
        problems.push_back(str_format("edge %zu: bad class id", e));
      }
    }
  }
  return problems;
}

namespace {

struct TraceResult {
  VertexId driver;
  std::vector<McReg> regs;  ///< source-to-sink order
};

}  // namespace

McGraph build_mc_graph(const Netlist& netlist, const ClassOptions& options) {
  McGraph g;
  g.classes_ = classify_registers(netlist, options);

  // Vertices: host + nodes + at most one tap per register control; edges:
  // one per fanin pin plus host closure (bounded by I/O + taps).
  std::size_t fanin_pins = 0;
  for (const Node& node : netlist.nodes()) fanin_pins += node.fanins.size();
  g.reserve(netlist.node_count() + 3 * netlist.register_count() + 1,
            fanin_pins + netlist.node_count() / 4 + 16);

  g.add_vertex(McVertexKind::kHost, 0);

  // One vertex per netlist node.
  std::vector<VertexId> node_vertex(netlist.node_count());
  for (std::size_t n = 0; n < netlist.node_count(); ++n) {
    const Node& node = netlist.nodes()[n];
    const NodeId id{static_cast<std::uint32_t>(n)};
    McVertexKind kind = McVertexKind::kGate;
    if (node.kind == NodeKind::kInput) kind = McVertexKind::kInput;
    if (node.kind == NodeKind::kOutput) kind = McVertexKind::kOutput;
    node_vertex[n] = g.add_vertex(kind, node.delay, id);
  }

  // Control-tap vertices: one per distinct non-clock control net, and one
  // per clock net not driven by a primary input (pinned like every tap, so
  // the clock logic keeps its timing), in deterministic discovery order.
  std::unordered_map<std::uint32_t, VertexId> taps;
  std::vector<std::pair<std::uint32_t, VertexId>> tap_list;
  for (const Register& ff : netlist.registers()) {
    const NetDriver& clk_driver = netlist.net(ff.clk).driver;
    const bool clk_is_pi =
        clk_driver.kind == NetDriver::Kind::kNode &&
        netlist.node(NodeId{clk_driver.index}).kind == NodeKind::kInput;
    const NetId derived_clk = clk_is_pi ? NetId{} : ff.clk;
    for (const NetId ctrl : {derived_clk, ff.en, ff.sync_ctrl, ff.async_ctrl}) {
      if (!ctrl.valid() || taps.count(ctrl.value())) continue;
      const VertexId tap =
          g.add_vertex(McVertexKind::kControlTap, 0, NodeId{}, ctrl);
      taps.emplace(ctrl.value(), tap);
      tap_list.emplace_back(ctrl.value(), tap);
    }
  }

  // Trace a net back through register chains to its driving node.
  auto trace = [&](NetId net) {
    TraceResult result;
    std::vector<McReg> reversed;
    while (true) {
      const NetDriver& driver = netlist.net(net).driver;
      if (reversed.size() > netlist.register_count()) {
        // A register ring with no combinational driver cannot be modeled
        // as a retiming-graph edge. (sweep() removes such degenerates.)
        throw std::invalid_argument(
            "mc-graph: driverless register cycle at net " +
            netlist.net(net).name);
      }
      if (driver.kind == NetDriver::Kind::kRegister) {
        const Register& ff = netlist.registers()[driver.index];
        McReg reg;
        reg.cls = g.classes_.reg_class[driver.index];
        reg.sync_val = ff.sync_val;
        reg.async_val = ff.async_val;
        reg.uid = g.fresh_uid();
        reversed.push_back(reg);
        net = ff.d;
        continue;
      }
      if (driver.kind != NetDriver::Kind::kNode) {
        throw std::invalid_argument("mc-graph: undriven net " +
                                    netlist.net(net).name);
      }
      result.driver = node_vertex[driver.index];
      break;
    }
    result.regs.assign(reversed.rbegin(), reversed.rend());
    return result;
  };

  // Edges: gate fanin pins and primary-output pins.
  for (std::size_t n = 0; n < netlist.node_count(); ++n) {
    const Node& node = netlist.nodes()[n];
    for (std::uint32_t pin = 0; pin < node.fanins.size(); ++pin) {
      TraceResult traced = trace(node.fanins[pin]);
      g.add_edge(traced.driver, node_vertex[n], std::move(traced.regs), pin);
    }
  }
  // Control-tap edges.
  for (const auto& [net_value, tap_vertex] : tap_list) {
    TraceResult traced = trace(NetId{net_value});
    g.add_edge(traced.driver, tap_vertex, std::move(traced.regs));
  }
  // Host closure: host -> inputs, sinks -> host, all weight 0.
  for (std::size_t v = 1; v < g.vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    switch (g.kind(vid)) {
      case McVertexKind::kInput:
        g.add_edge(g.host(), vid, {});
        break;
      case McVertexKind::kOutput:
      case McVertexKind::kControlTap:
        g.add_edge(vid, g.host(), {});
        break;
      default:
        break;
    }
  }
  return g;
}

}  // namespace mcrt
