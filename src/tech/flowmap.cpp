#include "tech/flowmap.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "flow/maxflow.h"
#include "netlist/compact.h"

namespace mcrt {
namespace {

/// Mapping works on nets: every combinational node output is a candidate
/// LUT output; PIs, constants and register Q nets are boundary sources.
/// The mapper iterates the CompactNetlist's CSR spans with persistent
/// epoch-stamped scratch, so a label's max-flow costs O(cone) setup rather
/// than per-label hash containers or an O(net_count) array. The orders that
/// determine the result (cone DFS order, the sorted cone-input list,
/// flow-arc insertion order, cut extraction order) are fixed, so the mapped
/// netlist is deterministic.
class CompactFlowMapper {
 public:
  CompactFlowMapper(const Netlist& input, const FlowMapOptions& options)
      : input_(input), compact_(input), options_(options) {}

  FlowMapResult run() {
    collect_boundaries();
    compute_labels();
    return realize();
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  void collect_boundaries() {
    const std::uint32_t nets = compact_.net_count();
    boundary_.assign(nets, 0);
    driver_.assign(nets, kNone);
    label_.assign(nets, 0);
    cut_.resize(nets);
    cone_mark_.assign(nets, 0);
    eval_mark_.assign(nets, 0);
    eval_val_.assign(nets, 0);
    net_to_flow_.assign(nets, kNone);
    for (const std::uint32_t in : compact_.input_nodes()) {
      boundary_[compact_.node_output(in)] = 1;
    }
    for (std::uint32_t r = 0; r < compact_.register_count(); ++r) {
      boundary_[compact_.reg_q(r)] = 1;
    }
    for (std::uint32_t v = 0; v < compact_.node_count(); ++v) {
      if (compact_.node_kind(v) != NodeKind::kLut) continue;
      const auto fanins = compact_.fanins(v);
      if (fanins.size() > options_.k) {
        throw std::invalid_argument(
            "flowmap: subject graph is not k-bounded");
      }
      if (fanins.empty()) {
        boundary_[compact_.node_output(v)] = 1;
        continue;
      }
      driver_[compact_.node_output(v)] = v;
    }
  }

  /// Transitive fanin cone of `target` up to boundary nets, in DFS order;
  /// cone membership is marked with the current epoch.
  void cone_of(std::uint32_t target) {
    ++cone_epoch_;
    cone_.clear();
    stack_.assign(1, target);
    cone_mark_[target] = cone_epoch_;
    while (!stack_.empty()) {
      const std::uint32_t net = stack_.back();
      stack_.pop_back();
      cone_.push_back(net);
      for (const std::uint32_t f : compact_.fanins(driver_[net])) {
        if (boundary_[f]) continue;
        if (cone_mark_[f] != cone_epoch_) {
          cone_mark_[f] = cone_epoch_;
          stack_.push_back(f);
        }
      }
    }
  }

  void compute_labels() {
    if (!compact_.acyclic()) {
      throw std::invalid_argument("flowmap: cyclic netlist");
    }
    for (const std::uint32_t v : compact_.comb_order()) {
      if (compact_.fanins(v).empty()) continue;
      poll_cancel(options_.cancel);
      compute_label(compact_.node_output(v));
    }
  }

  void compute_label(std::uint32_t target) {
    const std::uint32_t driver = driver_[target];
    const auto target_fanins = compact_.fanins(driver);
    // p = max label over fanins.
    std::uint32_t p = 0;
    for (const std::uint32_t f : target_fanins) {
      p = std::max(p, label_[f]);
    }
    if (p == 0) {
      // All fanins are boundaries; the trivial cut is always k-feasible for
      // a k-bounded node.
      label_[target] = 1;
      cut_[target].assign(target_fanins.begin(), target_fanins.end());
      dedupe_ids(cut_[target]);
      return;
    }
    // Build the flow network over the cone: collapse target and all cone
    // nets with label == p into the sink; test max-flow <= k.
    cone_of(target);
    // Cone inputs = boundary fanins, in ascending net order.
    input_nets_.clear();
    for (const std::uint32_t n : cone_) {
      for (const std::uint32_t f : compact_.fanins(driver_[n])) {
        if (boundary_[f]) input_nets_.push_back(f);
      }
    }
    std::sort(input_nets_.begin(), input_nets_.end());
    input_nets_.erase(std::unique(input_nets_.begin(), input_nets_.end()),
                      input_nets_.end());
    // Flow node ids: 0 = source, 1 = sink (collapsed cluster), then two per
    // cuttable net (in, out).
    cuttable_.clear();
    std::uint32_t next = 2;
    for (const std::uint32_t net : input_nets_) {
      net_to_flow_[net] = next;
      next += 2;
      cuttable_.push_back(net);
    }
    for (const std::uint32_t n : cone_) {
      if (label_[n] == p) continue;  // part of the sink cluster
      if (n == target) continue;
      net_to_flow_[n] = next;
      next += 2;
      cuttable_.push_back(n);
    }
    MaxFlow flow(next);
    for (const std::uint32_t net : cuttable_) {
      flow.add_arc(net_to_flow_[net], net_to_flow_[net] + 1, 1);
    }
    const std::int64_t kInf = 1 << 20;
    for (const std::uint32_t net : input_nets_) {
      flow.add_arc(0, net_to_flow_[net], kInf);
    }
    auto in_cluster = [&](std::uint32_t n) {
      return n == target || (cone_mark_[n] == cone_epoch_ && label_[n] == p);
    };
    for (const std::uint32_t n : cone_) {
      const std::uint32_t head = in_cluster(n) ? 1 : net_to_flow_[n];
      for (const std::uint32_t f : compact_.fanins(driver_[n])) {
        const std::uint32_t tail = in_cluster(f) ? 1 : net_to_flow_[f] + 1;
        if (tail == head) continue;  // both inside the cluster
        flow.add_arc(tail, head, kInf);
      }
    }
    const std::int64_t max_flow =
        flow.solve(0, 1, static_cast<std::int64_t>(options_.k) + 1);
    if (max_flow <= options_.k) {
      // Min cut = cuttable nets whose in-side is reachable but out-side is
      // not (saturated net arcs crossing the cut).
      label_[target] = p;
      cut_[target].clear();
      for (const std::uint32_t net : cuttable_) {
        if (flow.source_side(net_to_flow_[net]) &&
            !flow.source_side(net_to_flow_[net] + 1)) {
          cut_[target].push_back(net);
        }
      }
      assert(!cut_[target].empty());
    } else {
      label_[target] = p + 1;
      cut_[target].assign(target_fanins.begin(), target_fanins.end());
      dedupe_ids(cut_[target]);
    }
    // Restore the shared scratch for the next label.
    for (const std::uint32_t net : cuttable_) net_to_flow_[net] = kNone;
  }

  static void dedupe_ids(std::vector<std::uint32_t>& nets) {
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  }

  /// Evaluates the cone function of `root` restricted to `cut` under the
  /// assignment `values` (bit i = value of cut[i]).
  bool eval_cone(std::uint32_t root, const std::vector<std::uint32_t>& cut,
                 std::uint32_t values) {
    ++eval_epoch_;
    for (std::size_t i = 0; i < cut.size(); ++i) {
      eval_mark_[cut[i]] = eval_epoch_;
      eval_val_[cut[i]] = (values >> i) & 1;
    }
    return eval_net(root);
  }

  bool eval_net(std::uint32_t net) {
    if (eval_mark_[net] == eval_epoch_) return eval_val_[net] != 0;
    if (boundary_[net]) {
      // Constant boundary nets evaluate to their constant; other boundary
      // nets must be in the cut - reaching here is a logic error unless
      // the net is a constant.
      if (compact_.driver_kind(net) != NetDriver::Kind::kNode) {
        throw std::logic_error("flowmap: cone evaluation escaped its cut");
      }
      const std::uint32_t v = compact_.driver_index(net);
      if (compact_.node_kind(v) != NodeKind::kLut ||
          !compact_.fanins(v).empty()) {
        throw std::logic_error("flowmap: cone evaluation escaped its cut");
      }
      const bool value = (compact_.tt_bits(v) & 1) != 0;
      eval_mark_[net] = eval_epoch_;
      eval_val_[net] = value ? 1 : 0;
      return value;
    }
    const std::uint32_t v = driver_[net];
    std::uint32_t bits = 0;
    const auto fanins = compact_.fanins(v);
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      if (eval_net(fanins[i])) bits |= 1u << i;
    }
    const bool value = ((compact_.tt_bits(v) >> bits) & 1) != 0;
    eval_mark_[net] = eval_epoch_;
    eval_val_[net] = value ? 1 : 0;
    return value;
  }

  /// Trivial cut of a net: the driving node's fanins, deduplicated.
  std::vector<std::uint32_t> trivial_cut(std::uint32_t net) const {
    const auto fanins = compact_.fanins(driver_[net]);
    std::vector<std::uint32_t> cut(fanins.begin(), fanins.end());
    dedupe_ids(cut);
    return cut;
  }

  /// Chooses the cut to realize per needed net. With area recovery, a net
  /// with depth slack reuses its (cheap, non-duplicating) trivial cut:
  /// nets are visited in reverse topological order, so every consumer has
  /// already registered its requirement, and the choice
  ///     trivial  iff  1 + max fanin label <= need(net)
  /// keeps realized depth <= need(net) by induction (an optimal cut's
  /// depth is bounded by the net's own label <= need).
  void choose_cuts(const std::vector<std::uint32_t>& roots) {
    need_.assign(compact_.net_count(), kNone);
    chosen_.assign(compact_.net_count(), 0);
    chosen_cut_.assign(compact_.net_count(), {});
    for (const std::uint32_t root : roots) {
      if (boundary_[root]) continue;
      need_[root] = need_[root] == kNone ? label_[root]
                                         : std::min(need_[root], label_[root]);
    }
    const auto order = compact_.comb_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto fanins = compact_.fanins(*it);
      if (fanins.empty()) continue;
      const std::uint32_t net = compact_.node_output(*it);
      if (need_[net] == kNone) continue;  // not needed by any consumer
      std::vector<std::uint32_t> cut;
      if (options_.area_recovery) {
        // Reuse-only recovery: fall back to the trivial cut when (a) depth
        // slack allows it and (b) every non-boundary fanin is already
        // demanded by some other consumer - then the trivial cut duplicates
        // nothing and simply taps logic that exists anyway. Without (b)
        // the trivial cut would fragment the cone into small LUTs.
        std::uint32_t fanin_label = 0;
        bool all_reused = true;
        for (const std::uint32_t f : fanins) {
          fanin_label = std::max(fanin_label, label_[f]);
          if (!boundary_[f] && need_[f] == kNone) all_reused = false;
        }
        if (all_reused && fanin_label + 1 <= need_[net]) {
          cut = trivial_cut(net);
        }
      }
      if (cut.empty()) cut = cut_[net];
      for (const std::uint32_t c : cut) {
        if (boundary_[c]) continue;
        const std::uint32_t required = need_[net] - 1;
        need_[c] = need_[c] == kNone ? required : std::min(need_[c], required);
      }
      chosen_[net] = 1;
      chosen_cut_[net] = std::move(cut);
    }
  }

  FlowMapResult realize() {
    FlowMapResult result;
    Netlist& out = result.mapped;
    std::vector<NetId> net_map(compact_.net_count());  // old -> new
    for (const NodeId in : input_.inputs()) {
      net_map[input_.node(in).output.index()] =
          out.add_input(input_.node(in).name);
    }
    // Constants carry over as constants.
    for (const Node& node : input_.nodes()) {
      if (node.kind == NodeKind::kLut && node.fanins.empty()) {
        net_map[node.output.index()] =
            out.add_const(node.function.eval(0), node.name);
      }
    }
    for (const Register& ff : input_.registers()) {
      net_map[ff.q.index()] = out.add_net(input_.net(ff.q).name);
    }

    // Roots: nets consumed by POs, register D pins and control pins.
    std::vector<std::uint32_t> roots;
    auto add_root = [&](NetId n) {
      if (n.valid()) roots.push_back(n.value());
    };
    for (const NodeId po : input_.outputs()) {
      add_root(input_.node(po).fanins[0]);
    }
    for (const Register& ff : input_.registers()) {
      add_root(ff.d);
      add_root(ff.clk);
      add_root(ff.en);
      add_root(ff.sync_ctrl);
      add_root(ff.async_ctrl);
    }

    choose_cuts(roots);

    // Build the chosen LUTs in topological order (cut inputs come first).
    for (const std::uint32_t v : compact_.comb_order()) {
      if (compact_.fanins(v).empty()) continue;
      const std::uint32_t net = compact_.node_output(v);
      if (!chosen_[net]) continue;
      const std::vector<std::uint32_t>& cut = chosen_cut_[net];
      const auto cut_size = static_cast<std::uint32_t>(cut.size());
      assert(cut_size <= options_.k && cut_size >= 1);
      std::uint64_t bits = 0;
      for (std::uint32_t row = 0; row < (1u << cut_size); ++row) {
        if (eval_cone(net, cut, row)) bits |= std::uint64_t{1} << row;
      }
      std::vector<NetId> lut_fanins;
      lut_fanins.reserve(cut_size);
      for (const std::uint32_t c : cut) lut_fanins.push_back(net_map[c]);
      const NetId mapped = out.add_lut(TruthTable(cut_size, bits),
                                       std::move(lut_fanins),
                                       input_.net(NetId{net}).name);
      out.set_node_delay(NodeId{out.net(mapped).driver.index},
                         options_.lut_delay);
      net_map[net] = mapped;
      result.depth = std::max(result.depth, label_[net]);
      ++result.lut_count;
    }

    for (const Register& ff : input_.registers()) {
      Register spec;
      spec.d = net_map[ff.d.index()];
      spec.q = net_map[ff.q.index()];
      spec.clk = net_map[ff.clk.index()];
      if (ff.en.valid()) spec.en = net_map[ff.en.index()];
      if (ff.sync_ctrl.valid()) spec.sync_ctrl = net_map[ff.sync_ctrl.index()];
      if (ff.async_ctrl.valid()) {
        spec.async_ctrl = net_map[ff.async_ctrl.index()];
      }
      spec.sync_val = ff.sync_val;
      spec.async_val = ff.async_val;
      spec.name = ff.name;
      out.add_register(std::move(spec));
    }
    for (const NodeId po : input_.outputs()) {
      const Node& node = input_.node(po);
      out.add_output(node.name, net_map[node.fanins[0].index()]);
    }
    return result;
  }

  const Netlist& input_;
  CompactNetlist compact_;
  const FlowMapOptions& options_;

  std::vector<std::uint8_t> boundary_;
  std::vector<std::uint32_t> driver_;  ///< net -> driving LUT node
  std::vector<std::uint32_t> label_;
  std::vector<std::vector<std::uint32_t>> cut_;  ///< optimal k-feasible cuts

  // Persistent scratch, epoch-stamped so per-label resets are O(touched).
  std::uint32_t cone_epoch_ = 0;
  std::vector<std::uint32_t> cone_mark_;
  std::vector<std::uint32_t> cone_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> input_nets_;
  std::vector<std::uint32_t> cuttable_;
  std::vector<std::uint32_t> net_to_flow_;
  std::uint32_t eval_epoch_ = 0;
  std::vector<std::uint32_t> eval_mark_;
  std::vector<std::uint8_t> eval_val_;
  std::vector<std::uint32_t> need_;
  std::vector<std::uint8_t> chosen_;
  std::vector<std::vector<std::uint32_t>> chosen_cut_;
};

}  // namespace

FlowMapResult flowmap_map(const Netlist& input,
                          const FlowMapOptions& options) {
  CompactFlowMapper mapper(input, options);
  return mapper.run();
}

}  // namespace mcrt
