#include "tech/flowmap.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "netlist/compact.h"

namespace mcrt {
namespace {

/// Mapping works on nets: every combinational node output is a candidate
/// LUT output; PIs, constants and register Q nets are boundary sources.
///
/// A label is one unit-vertex-capacity max-flow over the node's cone,
/// solved in place on the netlist: every cuttable net u is a split pair
/// in(u) -> out(u) of capacity 1, fanin arcs out(f) -> in(n) and the source
/// arcs into cone inputs are unbounded, and the target with every cone net
/// of label p collapses into the sink. A unit of flow through u is recorded
/// as u's successor (`next`, a net or kSink) and predecessor (`prev`), so
/// the residual arcs are read off the CompactNetlist's CSR spans and that
/// per-net state - no arc list is built. Scratch is net-indexed and
/// epoch-stamped, so a label costs O(cone) and, once the scratch vectors
/// have grown, allocates nothing.
///
/// The orders that determine the result (cone DFS order, cut extraction
/// order) are fixed, and every maximum flow leaves the same residual source
/// side, so the mapped netlist is deterministic.
class CompactFlowMapper {
 public:
  CompactFlowMapper(const Netlist& input, const FlowMapOptions& options)
      : input_(input), compact_(input), options_(options) {}

  void label() {
    collect_boundaries();
    compute_labels();
  }

  FlowMapLabels take_labels() { return std::move(labels_); }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kSink = 0xfffffffeu;

  /// The unit of flow through a net; valid while `flow` equals the current
  /// cone epoch.
  struct NetState {
    std::uint32_t flow = 0;
    std::uint32_t next = kNone;  ///< kNone: no flow through the net
    std::uint32_t prev = kNone;
  };

  /// Flow nodes of a cuttable net: in(u) = 2u, out(u) = 2u + 1.
  static std::uint32_t in_node(std::uint32_t net) { return 2 * net; }
  static std::uint32_t out_node(std::uint32_t net) { return 2 * net + 1; }

  void collect_boundaries() {
    const std::uint32_t nets = compact_.net_count();
    boundary_.assign(nets, 0);
    driver_.assign(nets, kNone);
    labels_.label.assign(nets, 0);
    labels_.cut_start.assign(nets, 0);
    labels_.cut_size.assign(nets, 0);
    cone_mark_.assign(nets, 0);
    state_.assign(nets, NetState{});
    seen_.assign(2 * static_cast<std::size_t>(nets), 0);
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

  /// Sink side: the target and its cone nets of label p (sources have
  /// label 0 < p).
  bool in_cluster(std::uint32_t net) const {
    return net == target_ || labels_.label[net] == p_;
  }
  bool has_flow(std::uint32_t net) const {
    return state_[net].flow == cone_epoch_ && state_[net].next != kNone;
  }
  /// Marks a flow node as reached by the current search; false if it was.
  bool reach(std::uint32_t node) {
    if (seen_[node] == search_epoch_) return false;
    seen_[node] = search_epoch_;
    return true;
  }

  void compute_label(std::uint32_t target) {
    const auto fanins = compact_.fanins(driver_[target]);
    // p = max label over fanins.
    std::uint32_t p = 0;
    for (const std::uint32_t f : fanins) p = std::max(p, labels_.label[f]);
    auto& pool = labels_.cut_nets;
    const std::size_t start = pool.size();
    // Max-flow from the cone inputs into the cluster of the target and its
    // label-p cone nets, stopped at k+1 units.
    std::uint32_t flow = 0;
    if (p > 0) {
      target_ = target;
      p_ = p;
      collect_cone();
      while (flow <= options_.k && augment()) ++flow;
    }
    if (p > 0 && flow <= options_.k) {
      labels_.label[target] = p;
      append_min_cut();
    } else {
      // p == 0: all fanins are boundaries, and the trivial cut is always
      // k-feasible for a k-bounded node. Flow > k: no cut of depth p.
      labels_.label[target] = p + 1;
      pool.insert(pool.end(), fanins.begin(), fanins.end());
      sort_unique_from(start);
    }
    labels_.cut_start[target] = static_cast<std::uint32_t>(start);
    labels_.cut_size[target] = static_cast<std::uint32_t>(pool.size() - start);
  }

  /// Sorts and deduplicates labels_.cut_nets from `start` on.
  void sort_unique_from(std::size_t start) {
    auto& pool = labels_.cut_nets;
    const auto first = pool.begin() + static_cast<std::ptrdiff_t>(start);
    std::sort(first, pool.end());
    pool.erase(std::unique(first, pool.end()), pool.end());
  }

  /// Transitive fanin cone of target_ up to boundary nets, in DFS order,
  /// marked with a new cone epoch; collects the cone inputs and the sink
  /// arcs' tails (non-cluster fanins of cluster nets) on the way.
  void collect_cone() {
    ++cone_epoch_;
    cone_.clear();
    input_nets_.clear();
    seeds_.clear();
    stack_.assign(1, target_);
    cone_mark_[target_] = cone_epoch_;
    while (!stack_.empty()) {
      const std::uint32_t net = stack_.back();
      stack_.pop_back();
      cone_.push_back(net);
      const bool cluster = in_cluster(net);
      for (const std::uint32_t f : compact_.fanins(driver_[net])) {
        if (cluster && !in_cluster(f)) seeds_.push_back(f);
        if (boundary_[f]) {
          input_nets_.push_back(f);
        } else if (cone_mark_[f] != cone_epoch_) {
          cone_mark_[f] = cone_epoch_;
          stack_.push_back(f);
        }
      }
    }
  }

  /// Pushes one more unit of flow into the sink; false at maximum flow.
  bool augment() {
    ++search_epoch_;
    for (const std::uint32_t seed : seeds_) {
      if (find_path(out_node(seed))) {
        state_[seed].flow = cone_epoch_;
        state_[seed].next = kSink;
        return true;
      }
    }
    return false;
  }

  /// DFS backward over the residual arcs into `node`, to a cone input
  /// (which the source feeds); on success the recursion reroutes the flow
  /// along the path as it unwinds. Every net's `next` is written by the one
  /// path arc that leaves out(net), so the update order does not matter.
  bool find_path(std::uint32_t node) {
    if (!reach(node)) return false;
    const std::uint32_t net = node >> 1;
    if (node & 1) {
      // Into out(u): in(u) -> out(u) while u is free, else the reverse of
      // the arc u -> next(u).
      if (!has_flow(net)) return find_path(in_node(net));
      return state_[net].next != kSink && find_path(in_node(state_[net].next));
    }
    // Into in(u): out(f) -> in(u) for every fanin f, then the reverse of
    // in(u) -> out(u) if u carries flow.
    if (boundary_[net]) return true;
    for (const std::uint32_t f : compact_.fanins(driver_[net])) {
      if (find_path(out_node(f))) {
        state_[f].flow = cone_epoch_;
        state_[f].next = net;
        state_[net].prev = f;
        return true;
      }
    }
    if (has_flow(net) && find_path(out_node(net))) {
      state_[net].next = kNone;
      return true;
    }
    return false;
  }

  /// At maximum flow: marks the residual source side by one forward sweep
  /// from the cone inputs, then appends the min cut to labels_.cut_nets -
  /// the cuttable nets whose in-node is reached but whose out-node is not,
  /// cone inputs ascending first, then the rest in cone order.
  void append_min_cut() {
    ++search_epoch_;
    stack_.clear();
    auto visit = [&](std::uint32_t node) {
      if (reach(node)) stack_.push_back(node);
    };
    for (const std::uint32_t net : input_nets_) visit(in_node(net));
    while (!stack_.empty()) {
      const std::uint32_t node = stack_.back();
      stack_.pop_back();
      const std::uint32_t net = node >> 1;
      if (!(node & 1)) {
        if (!has_flow(net)) {
          visit(out_node(net));
        } else if (!boundary_[net]) {
          visit(out_node(state_[net].prev));
        }
        continue;
      }
      if (has_flow(net)) visit(in_node(net));
      for (const std::uint32_t v : compact_.reader_nodes(net)) {
        if (compact_.node_kind(v) != NodeKind::kLut) continue;
        const std::uint32_t reader = compact_.node_output(v);
        if (cone_mark_[reader] != cone_epoch_) continue;
        assert(!in_cluster(reader));  // the sink is not reachable
        visit(in_node(reader));
      }
    }
    auto in_cut = [&](std::uint32_t net) {
      return seen_[in_node(net)] == search_epoch_ &&
             seen_[out_node(net)] != search_epoch_;
    };
    auto& pool = labels_.cut_nets;
    const std::size_t start = pool.size();
    for (const std::uint32_t net : input_nets_) {
      if (in_cut(net)) pool.push_back(net);
    }
    sort_unique_from(start);
    for (const std::uint32_t net : cone_) {
      if (!in_cluster(net) && in_cut(net)) pool.push_back(net);
    }
    assert(pool.size() > start);
  }

  /// Truth table of `root` over `cut` (cut[i] is input i): each net of the
  /// cone between is evaluated once, on all 64 rows at a time.
  std::uint64_t cone_function(std::uint32_t root,
                              const std::vector<std::uint32_t>& cut) {
    static constexpr std::uint64_t kColumn[TruthTable::kMaxInputs] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    assert(cut.size() <= TruthTable::kMaxInputs);
    ++eval_epoch_;
    for (std::size_t i = 0; i < cut.size(); ++i) {
      eval_mark_[cut[i]] = eval_epoch_;
      eval_word_[cut[i]] = kColumn[i];
    }
    return eval_word(root);
  }

  std::uint64_t eval_word(std::uint32_t net) {
    if (eval_mark_[net] == eval_epoch_) return eval_word_[net];
    // Outside the cut only LUTs are reached; constants are 0-input LUTs.
    if (compact_.driver_kind(net) != NetDriver::Kind::kNode ||
        compact_.node_kind(compact_.driver_index(net)) != NodeKind::kLut) {
      throw std::logic_error("flowmap: cone evaluation escaped its cut");
    }
    const std::uint32_t v = compact_.driver_index(net);
    const auto fanins = compact_.fanins(v);
    std::uint64_t word = 0;
    for (std::uint32_t row = 0; row < (1u << fanins.size()); ++row) {
      if (((compact_.tt_bits(v) >> row) & 1) == 0) continue;
      std::uint64_t term = ~std::uint64_t{0};
      for (std::size_t i = 0; i < fanins.size(); ++i) {
        const std::uint64_t in = eval_word(fanins[i]);
        term &= ((row >> i) & 1) != 0 ? in : ~in;
      }
      word |= term;
    }
    eval_mark_[net] = eval_epoch_;
    eval_word_[net] = word;
    return word;
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
    chosen_cut_.assign(compact_.net_count(), {});
    for (const std::uint32_t root : roots) {
      if (boundary_[root]) continue;
      need_[root] = std::min(need_[root], labels_.label[root]);
    }
    const auto order = compact_.comb_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto fanins = compact_.fanins(*it);
      if (fanins.empty()) continue;
      const std::uint32_t net = compact_.node_output(*it);
      if (need_[net] == kNone) continue;  // not needed by any consumer
      std::vector<std::uint32_t>& cut = chosen_cut_[net];
      if (options_.area_recovery) {
        // Reuse-only recovery: fall back to the trivial cut when (a) depth
        // slack allows it and (b) every non-boundary fanin is already
        // demanded by some other consumer - then the trivial cut duplicates
        // nothing and simply taps logic that exists anyway. Without (b)
        // the trivial cut would fragment the cone into small LUTs.
        std::uint32_t fanin_label = 0;
        bool all_reused = true;
        for (const std::uint32_t f : fanins) {
          fanin_label = std::max(fanin_label, labels_.label[f]);
          if (!boundary_[f] && need_[f] == kNone) all_reused = false;
        }
        if (all_reused && fanin_label + 1 <= need_[net]) {
          cut.assign(fanins.begin(), fanins.end());
          std::sort(cut.begin(), cut.end());
          cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
        }
      }
      if (cut.empty()) {
        const auto optimal = labels_.cut(net);
        cut.assign(optimal.begin(), optimal.end());
      }
      for (const std::uint32_t c : cut) {
        if (boundary_[c]) continue;
        need_[c] = std::min(need_[c], need_[net] - 1);
      }
    }
  }

 public:
  /// Chooses and builds the LUTs; call after label().
  FlowMapResult realize() {
    eval_mark_.assign(compact_.net_count(), 0);
    eval_word_.assign(compact_.net_count(), 0);
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
      const std::vector<std::uint32_t>& cut = chosen_cut_[net];
      if (cut.empty()) continue;  // not chosen
      const auto cut_size = static_cast<std::uint32_t>(cut.size());
      assert(cut_size <= options_.k);
      std::vector<NetId> lut_fanins;
      lut_fanins.reserve(cut_size);
      for (const std::uint32_t c : cut) lut_fanins.push_back(net_map[c]);
      const NetId mapped =
          out.add_lut(TruthTable(cut_size, cone_function(net, cut)),
                      std::move(lut_fanins), input_.net(NetId{net}).name);
      out.set_node_delay(NodeId{out.net(mapped).driver.index},
                         options_.lut_delay);
      net_map[net] = mapped;
      result.depth = std::max(result.depth, labels_.label[net]);
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

 private:
  const Netlist& input_;
  CompactNetlist compact_;
  const FlowMapOptions& options_;

  std::vector<std::uint8_t> boundary_;
  std::vector<std::uint32_t> driver_;  ///< net -> driving LUT node
  FlowMapLabels labels_;

  // Persistent scratch, epoch-stamped so per-label resets are O(touched).
  std::uint32_t target_ = kNone;  ///< net being labelled
  std::uint32_t p_ = 0;           ///< its max fanin label
  std::uint32_t cone_epoch_ = 0;
  std::uint32_t search_epoch_ = 0;
  std::vector<std::uint32_t> cone_mark_;
  std::vector<NetState> state_;
  std::vector<std::uint32_t> seen_;  ///< per flow node: last search to reach it
  std::vector<std::uint32_t> cone_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> input_nets_;  ///< cone inputs, repeats allowed
  std::vector<std::uint32_t> seeds_;       ///< tails of the sink arcs
  std::uint32_t eval_epoch_ = 0;
  std::vector<std::uint32_t> eval_mark_;
  std::vector<std::uint64_t> eval_word_;
  std::vector<std::uint32_t> need_;
  std::vector<std::vector<std::uint32_t>> chosen_cut_;  ///< empty: no LUT
};

}  // namespace

FlowMapLabels flowmap_label(const Netlist& input,
                            const FlowMapOptions& options) {
  CompactFlowMapper mapper(input, options);
  mapper.label();
  return mapper.take_labels();
}

FlowMapResult flowmap_map(const Netlist& input,
                          const FlowMapOptions& options) {
  CompactFlowMapper mapper(input, options);
  mapper.label();
  return mapper.realize();
}

}  // namespace mcrt
