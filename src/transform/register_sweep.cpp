#include "transform/register_sweep.h"

#include <array>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace mcrt {

Netlist register_sweep(const Netlist& input, RegisterSweepStats* stats) {
  // Iterate to a fixed point: merging one layer of duplicates can make the
  // next layer's D inputs identical (parallel shift chains collapse stage
  // by stage).
  Netlist current = input;
  bool changed = true;
  while (changed) {
    changed = false;
    // Group registers by (D net, clk, en, sync, async) with value
    // compatibility handled inside the group.
    using Key = std::array<std::uint32_t, 5>;
    std::map<Key, std::vector<std::uint32_t>> groups;
    for (std::size_t r = 0; r < current.register_count(); ++r) {
      const Register& ff = current.registers()[r];
      groups[{ff.d.value(), ff.clk.value(), ff.en.value(),
              ff.sync_ctrl.value(), ff.async_ctrl.value()}]
          .push_back(static_cast<std::uint32_t>(r));
    }
    // Representative per register (itself if unique).
    std::unordered_map<std::uint32_t, std::uint32_t> rep;
    for (auto& [key, members] : groups) {
      // Greedy value-compatible buckets inside the group.
      std::vector<std::uint32_t> leaders;
      for (const std::uint32_t r : members) {
        Register& ff = current.reg(RegId{r});
        bool placed = false;
        for (const std::uint32_t leader : leaders) {
          Register& lead = current.reg(RegId{leader});
          const auto sync_val = merge_reset_value(lead.sync_val, ff.sync_val);
          const auto async_val =
              merge_reset_value(lead.async_val, ff.async_val);
          if (sync_val && async_val) {
            lead.sync_val = *sync_val;
            lead.async_val = *async_val;
            rep[r] = leader;
            placed = true;
            break;
          }
        }
        if (!placed) {
          leaders.push_back(r);
          rep[r] = r;
        }
      }
    }
    // Rebuild, dropping merged registers and rerouting their Q readers.
    Netlist out;
    std::unordered_map<std::uint32_t, NetId> net_map;
    for (const NodeId in : current.inputs()) {
      net_map[current.node(in).output.value()] =
          out.add_input(current.node(in).name);
    }
    for (std::size_t r = 0; r < current.register_count(); ++r) {
      if (rep.at(static_cast<std::uint32_t>(r)) !=
          static_cast<std::uint32_t>(r)) {
        continue;
      }
      const NetId q = current.registers()[r].q;
      net_map[q.value()] = out.add_net(current.net(q).name);
    }
    // Merged registers' Q nets alias their representative's.
    for (std::size_t r = 0; r < current.register_count(); ++r) {
      const std::uint32_t leader = rep.at(static_cast<std::uint32_t>(r));
      if (leader == r) continue;
      net_map[current.registers()[r].q.value()] =
          net_map.at(current.registers()[leader].q.value());
      if (stats) ++stats->merged_registers;
      changed = true;
    }
    const auto order = current.combinational_order();
    if (!order) throw std::invalid_argument("register_sweep: cyclic netlist");
    for (const NodeId id : *order) {
      const Node& node = current.node(id);
      if (node.kind != NodeKind::kLut) continue;
      std::vector<NetId> fanins;
      for (const NetId f : node.fanins) fanins.push_back(net_map.at(f.value()));
      const NetId result =
          out.add_lut(node.function, std::move(fanins), node.name);
      out.set_node_delay(NodeId{out.net(result).driver.index}, node.delay);
      net_map[node.output.value()] = result;
    }
    for (std::size_t r = 0; r < current.register_count(); ++r) {
      if (rep.at(static_cast<std::uint32_t>(r)) !=
          static_cast<std::uint32_t>(r)) {
        continue;
      }
      Register spec = current.registers()[r];
      spec.d = net_map.at(spec.d.value());
      spec.q = net_map.at(spec.q.value());
      spec.clk = net_map.at(spec.clk.value());
      if (spec.en.valid()) spec.en = net_map.at(spec.en.value());
      if (spec.sync_ctrl.valid()) {
        spec.sync_ctrl = net_map.at(spec.sync_ctrl.value());
      }
      if (spec.async_ctrl.valid()) {
        spec.async_ctrl = net_map.at(spec.async_ctrl.value());
      }
      out.add_register(std::move(spec));
    }
    for (const NodeId po : current.outputs()) {
      out.add_output(current.node(po).name,
                     net_map.at(current.node(po).fanins[0].value()));
    }
    current = std::move(out);
  }
  return current;
}

}  // namespace mcrt
