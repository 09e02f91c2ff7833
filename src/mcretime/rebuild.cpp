#include "mcretime/rebuild.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "base/strings.h"

namespace mcrt {
namespace {

struct PhysReg {
  NetId d;
  NetId q;
  ClassId cls;
  ResetVal sync_val;
  ResetVal async_val;
};

class Rebuilder {
 public:
  Rebuilder(const McGraph& graph, const Netlist& netlist)
      : g_(graph), netlist_(netlist) {}

  Netlist run() {
    const Digraph& dg = g_.digraph();
    const std::size_t n = g_.vertex_count();

    // Phase 1: vertex output nets.
    vertex_net_.assign(n, NetId{});
    for (std::size_t v = 1; v < n; ++v) {
      const VertexId vid{static_cast<std::uint32_t>(v)};
      switch (g_.kind(vid)) {
        case McVertexKind::kInput: {
          const Node& node = netlist_.node(g_.origin_node(vid));
          vertex_net_[v] = out_.add_input(node.name);
          break;
        }
        case McVertexKind::kGate: {
          const Node& node = netlist_.node(g_.origin_node(vid));
          vertex_net_[v] = out_.add_net(node.name);
          break;
        }
        default:
          break;  // sinks and separators have no own net
      }
    }

    // Phase 2a: register chains per driver. Separators depend on their
    // driver's chains, so process non-separators first.
    edge_tap_.assign(dg.edge_count(), NetId{});
    std::vector<VertexId> drivers;
    for (std::size_t v = 1; v < n; ++v) {
      const VertexId vid{static_cast<std::uint32_t>(v)};
      if (g_.kind(vid) == McVertexKind::kInput ||
          g_.kind(vid) == McVertexKind::kGate) {
        drivers.push_back(vid);
      }
    }
    for (std::size_t v = 1; v < n; ++v) {
      const VertexId vid{static_cast<std::uint32_t>(v)};
      if (g_.kind(vid) == McVertexKind::kSeparator) drivers.push_back(vid);
    }
    for (const VertexId u : drivers) build_chains(u);

    // Phase 2b: control-net resolution.
    std::unordered_map<std::uint32_t, NetId> control_net;  // original -> new
    for (std::size_t v = 1; v < n; ++v) {
      const VertexId vid{static_cast<std::uint32_t>(v)};
      if (g_.kind(vid) != McVertexKind::kControlTap) continue;
      const auto in_edges = dg.in_edges(vid);
      if (in_edges.size() != 1) {
        throw std::logic_error("rebuild: control tap without single source");
      }
      control_net[g_.tap_net(vid).value()] = edge_tap_[in_edges[0].index()];
    }
    // Clock nets (and any control net that is a primary input) resolve to
    // the corresponding new primary input.
    auto resolve_control = [&](NetId original) -> NetId {
      if (const auto it = control_net.find(original.value());
          it != control_net.end()) {
        return it->second;
      }
      const NetDriver& d = netlist_.net(original).driver;
      if (d.kind == NetDriver::Kind::kNode) {
        const Node& node = netlist_.node(NodeId{d.index});
        if (node.kind == NodeKind::kInput) {
          // Find the vertex of this PI.
          for (std::size_t v = 1; v < n; ++v) {
            const VertexId vid{static_cast<std::uint32_t>(v)};
            if (g_.kind(vid) == McVertexKind::kInput &&
                g_.origin_node(vid) == NodeId{d.index}) {
              return vertex_net_[v];
            }
          }
        }
      }
      throw std::logic_error("rebuild: unresolvable control net " +
                             netlist_.net(original).name);
    };

    // Phase 2c: materialize registers.
    std::size_t reg_counter = 0;
    for (const PhysReg& phys : phys_regs_) {
      const RegisterClassInfo& info = g_.classes().classes[phys.cls.index()];
      Register spec;
      spec.d = phys.d;
      spec.q = phys.q;
      spec.clk = resolve_control(info.clk);
      if (info.en.valid()) spec.en = resolve_control(info.en);
      if (info.sync_ctrl.valid()) {
        spec.sync_ctrl = resolve_control(info.sync_ctrl);
        spec.sync_val = phys.sync_val == ResetVal::kDontCare
                            ? ResetVal::kZero
                            : phys.sync_val;
      }
      if (info.async_ctrl.valid()) {
        spec.async_ctrl = resolve_control(info.async_ctrl);
        spec.async_val = phys.async_val == ResetVal::kDontCare
                             ? ResetVal::kZero
                             : phys.async_val;
      }
      spec.name = str_format("rff%zu", reg_counter++);
      out_.add_register(std::move(spec));
    }

    // Phase 3: combinational nodes, outputs.
    for (std::size_t v = 1; v < n; ++v) {
      const VertexId vid{static_cast<std::uint32_t>(v)};
      if (g_.kind(vid) == McVertexKind::kGate) {
        const Node& node = netlist_.node(g_.origin_node(vid));
        std::vector<NetId> fanins(node.fanins.size(), NetId{});
        for (const EdgeId e : dg.in_edges(vid)) {
          fanins[g_.sink_pin(e)] = edge_tap_[e.index()];
        }
        for (const NetId f : fanins) {
          if (!f.valid()) {
            throw std::logic_error("rebuild: missing fanin for " + node.name);
          }
        }
        const NodeId built = out_.add_lut_driving(vertex_net_[v],
                                                  node.function,
                                                  std::move(fanins));
        out_.set_node_delay(built, node.delay);
      } else if (g_.kind(vid) == McVertexKind::kOutput) {
        const Node& node = netlist_.node(g_.origin_node(vid));
        const auto in_edges = dg.in_edges(vid);
        if (in_edges.size() != 1) {
          throw std::logic_error("rebuild: output without single source");
        }
        out_.add_output(node.name, edge_tap_[in_edges[0].index()]);
      }
    }
    return std::move(out_);
  }

 private:
  /// Source net a driver's chains start from. For separators this is the
  /// tap of the (already materialized) incoming edge.
  NetId driver_net(VertexId u) const {
    if (g_.kind(u) == McVertexKind::kSeparator) {
      const auto in_edges = g_.digraph().in_edges(u);
      return edge_tap_[in_edges[0].index()];
    }
    return vertex_net_[u.index()];
  }

  void build_chains(VertexId u) {
    const Digraph& dg = g_.digraph();
    std::vector<EdgeId> edges(dg.out_edges(u).begin(), dg.out_edges(u).end());
    if (edges.empty()) return;
    build_layer(driver_net(u), edges, 0);
  }

  /// Recursively materializes layer `depth` of the given edges, all of
  /// which take their depth-prefix registers from `source`.
  void build_layer(NetId source, const std::vector<EdgeId>& edges,
                   std::size_t depth) {
    // Edges exhausted at this depth tap the current source.
    std::vector<EdgeId> remaining;
    for (const EdgeId e : edges) {
      if (g_.regs(e).size() <= depth) {
        edge_tap_[e.index()] = source;
      } else {
        remaining.push_back(e);
      }
    }
    if (remaining.empty()) return;
    // Greedy bucketing: same class, mergeable reset values.
    struct Bucket {
      ClassId cls;
      ResetVal sync_val;
      ResetVal async_val;
      std::vector<EdgeId> members;
    };
    std::vector<Bucket> buckets;
    for (const EdgeId e : remaining) {
      const McReg& reg = g_.regs(e)[depth];
      Bucket* found = nullptr;
      for (Bucket& b : buckets) {
        if (b.cls != reg.cls) continue;
        const auto sync_val = merge_reset_value(b.sync_val, reg.sync_val);
        const auto async_val = merge_reset_value(b.async_val, reg.async_val);
        if (sync_val && async_val) {
          b.sync_val = *sync_val;
          b.async_val = *async_val;
          found = &b;
          break;
        }
      }
      if (!found) {
        buckets.push_back({reg.cls, reg.sync_val, reg.async_val, {}});
        found = &buckets.back();
      }
      found->members.push_back(e);
    }
    for (const Bucket& b : buckets) {
      PhysReg phys;
      phys.d = source;
      phys.q = out_.add_net();
      phys.cls = b.cls;
      phys.sync_val = b.sync_val;
      phys.async_val = b.async_val;
      phys_regs_.push_back(phys);
      build_layer(phys.q, b.members, depth + 1);
    }
  }

  const McGraph& g_;
  const Netlist& netlist_;
  Netlist out_;
  std::vector<NetId> vertex_net_;
  std::vector<NetId> edge_tap_;
  std::vector<PhysReg> phys_regs_;
};

}  // namespace

Netlist rebuild_netlist(const McGraph& graph, const Netlist& netlist) {
  Rebuilder rebuilder(graph, netlist);
  return rebuilder.run();
}

}  // namespace mcrt
