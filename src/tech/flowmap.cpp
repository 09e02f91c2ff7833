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
/// per-net state - no arc list is built, and the cone is never listed.
/// A label walks the sink cluster, the augmenting paths, the flow paths
/// back from the sink to their cut nets, and as much of the cone as fixes
/// the cut's order; scratch is net-indexed and epoch-stamped, so once the
/// scratch vectors have grown a label allocates nothing.
///
/// The orders that determine the result (cluster DFS order, cut order) are
/// fixed, and every maximum flow leaves the same residual source side, so
/// the mapped netlist is deterministic.
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
  /// label epoch.
  struct NetState {
    std::uint32_t flow = 0;
    std::uint32_t next = kNone;  ///< kNone: no flow through the net
    std::uint32_t prev = kNone;
  };

  /// A node of source_reaches()'s DFS and its next residual arc to try.
  struct Frame {
    std::uint32_t node = 0;
    std::uint32_t arc = 0;
  };

  /// Flow nodes of a cuttable net: in(u) = 2u, out(u) = 2u + 1.
  static std::uint32_t in_node(std::uint32_t net) { return 2 * net; }
  static std::uint32_t out_node(std::uint32_t net) { return 2 * net + 1; }

  void collect_boundaries() {
    const std::uint32_t nets = compact_.net_count();
    boundary_.assign(nets, 0);
    driver_.assign(nets, kNone);
    level_.assign(nets, 0);
    labels_.label.assign(nets, 0);
    labels_.cut_start.assign(nets, 0);
    labels_.cut_size.assign(nets, 0);
    net_mark_.assign(nets, 0);
    cut_mark_.assign(nets, 0);
    state_.assign(nets, NetState{});
    seen_.assign(2 * static_cast<std::size_t>(nets), 0);
    side_.assign(2 * static_cast<std::size_t>(nets), 0);
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
    return state_[net].flow == label_epoch_ && state_[net].next != kNone;
  }
  /// Marks a flow node as reached by the current search; false if it was.
  bool reach(std::uint32_t node) {
    if (seen_[node] == search_epoch_) return false;
    seen_[node] = search_epoch_;
    ++labels_.label_visits;
    return true;
  }

  void compute_label(std::uint32_t target) {
    const auto fanins = compact_.fanins(driver_[target]);
    // p = max label over fanins; the level is the longest path from a
    // boundary.
    std::uint32_t p = 0;
    std::uint32_t level = 0;
    for (const std::uint32_t f : fanins) {
      p = std::max(p, labels_.label[f]);
      level = std::max(level, level_[f]);
    }
    level_[target] = level + 1;
    auto& pool = labels_.cut_nets;
    const std::size_t start = pool.size();
    // Max-flow from the cone inputs into the cluster of the target and its
    // label-p cone nets, stopped at k+1 units.
    std::uint32_t flow = 0;
    if (p > 0) {
      target_ = target;
      p_ = p;
      collect_cluster();
      while (flow <= options_.k && augment()) ++flow;
    }
    if (p > 0 && flow <= options_.k) {
      labels_.label[target] = p;
      append_sink_side_cut();
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

  /// Starts a new label epoch and collects the sink arcs' tails (the
  /// cluster's fanins outside it) by a DFS from target_ that walks only
  /// cluster nets. Every net on a path from a label-p net to the target
  /// has label p, so this DFS finds the whole cluster within the cone, and
  /// it meets the cluster nets, and so the tails, in the order a DFS of
  /// the whole cone would.
  void collect_cluster() {
    ++label_epoch_;
    ++mark_epoch_;
    seeds_.clear();
    path_ends_.clear();
    stack_.assign(1, target_);
    net_mark_[target_] = mark_epoch_;
    while (!stack_.empty()) {
      const std::uint32_t net = stack_.back();
      stack_.pop_back();
      ++labels_.label_visits;
      for (const std::uint32_t f : compact_.fanins(driver_[net])) {
        if (!in_cluster(f)) {
          seeds_.push_back(f);
        } else if (net_mark_[f] != mark_epoch_) {
          net_mark_[f] = mark_epoch_;
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
        state_[seed].flow = label_epoch_;
        state_[seed].next = kSink;
        path_ends_.push_back(seed);
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
        state_[f].flow = label_epoch_;
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

  /// The tail of the `arc`-th residual arc into flow node `node`, in
  /// find_path's order, or kNone past the last (a boundary in-node's
  /// source arc is not listed).
  std::uint32_t residual_tail(std::uint32_t node, std::uint32_t arc) const {
    const std::uint32_t net = node >> 1;
    if (node & 1) {
      if (arc > 0) return kNone;
      if (!has_flow(net)) return in_node(net);
      return state_[net].next == kSink ? kNone : in_node(state_[net].next);
    }
    const auto fanins = compact_.fanins(driver_[net]);
    if (arc < fanins.size()) return out_node(fanins[arc]);
    return arc == fanins.size() && has_flow(net) ? out_node(net) : kNone;
  }

  /// Memo of source_reaches(), per label: side_[node] is 2 * epoch + 1 on
  /// the source side, 2 * epoch on the sink side.
  bool side_known(std::uint32_t node) const {
    return side_[node] >> 1 == label_epoch_;
  }
  void set_side(std::uint32_t node, bool source) {
    side_[node] = label_epoch_ << 1 | static_cast<std::uint32_t>(source);
  }

  /// Whether the source reaches flow node `start` in the residual network:
  /// a DFS backward over residual arcs that stops at a boundary in-node.
  /// A failed search proves every node it visited on the sink side; a
  /// successful one proves the nodes of its path on the source side.
  bool source_reaches(std::uint32_t start) {
    ++search_epoch_;
    visited_.clear();
    frames_.clear();
    std::uint32_t node = start;
    for (;;) {
      // Enter `node`, unless it is known or already visited.
      if (side_known(node)) {
        if (side_[node] & 1) break;
      } else if (reach(node)) {
        visited_.push_back(node);
        if (!(node & 1) && boundary_[node >> 1]) {
          set_side(node, true);
          break;
        }
        frames_.push_back(Frame{node, 0});
      }
      // Take the next untried arc of the deepest open node.
      node = kNone;
      while (!frames_.empty() && node == kNone) {
        Frame& top = frames_.back();
        node = residual_tail(top.node, top.arc++);
        if (node == kNone) frames_.pop_back();
      }
      if (node == kNone) {
        for (const std::uint32_t v : visited_) set_side(v, false);
        return false;
      }
    }
    for (const Frame& frame : frames_) set_side(frame.node, true);
    return true;
  }

  /// At maximum flow: appends the min cut to labels_.cut_nets - the nets
  /// whose in-node the source reaches in the residual network but whose
  /// out-node it does not - boundary nets ascending first, then the rest
  /// in cone DFS order. Each flow path into the sink crosses the cut once,
  /// at its cut net, and the source side is a prefix of the path; so,
  /// walking a path back from its seed, the first net whose in-node the
  /// source reaches is the path's cut net.
  void append_sink_side_cut() {
    auto& pool = labels_.cut_nets;
    const std::size_t start = pool.size();
    cut_.clear();
    for (const std::uint32_t seed : path_ends_) {
      std::uint32_t net = seed;
      while (!source_reaches(in_node(net))) net = state_[net].prev;
      if (boundary_[net]) {
        pool.push_back(net);
      } else {
        cut_.push_back(net);
      }
    }
    assert(pool.size() + cut_.size() > start);
    sort_unique_from(start);
    append_in_cone_order();
  }

  /// Appends cut_ to labels_.cut_nets in the order a mark-on-push DFS of
  /// the whole cone from the target (fanins pushed in order, boundaries
  /// skipped) pops them. The same DFS runs, with two shortcuts: a popped
  /// net is expanded only while its level is above the lowest level of a
  /// cut net not yet pushed (below that no such net can be in its cone),
  /// and the DFS stops once every cut net is pushed - the ones still on
  /// the stack then pop in stack order. A skipped expansion pushes no cut
  /// net, and no net it would have pushed is ever expanded (the lowest
  /// pending level only rises), so every cut net is pushed, by the same
  /// net and in the same order, as in the full DFS.
  void append_in_cone_order() {
    auto& pool = labels_.cut_nets;
    if (cut_.empty()) return;
    for (const std::uint32_t net : cut_) cut_mark_[net] = label_epoch_;
    const auto lowest_pending = [&] {
      std::uint32_t low = kNone;
      for (const std::uint32_t net : cut_) low = std::min(low, level_[net]);
      return low;
    };
    std::uint32_t low = lowest_pending();
    ++mark_epoch_;
    stack_.assign(1, target_);
    net_mark_[target_] = mark_epoch_;
    while (!cut_.empty() && !stack_.empty()) {
      const std::uint32_t net = stack_.back();
      stack_.pop_back();
      ++labels_.label_visits;
      if (cut_mark_[net] == label_epoch_) pool.push_back(net);
      if (level_[net] <= low) continue;
      for (const std::uint32_t f : compact_.fanins(driver_[net])) {
        if (boundary_[f] || net_mark_[f] == mark_epoch_) continue;
        net_mark_[f] = mark_epoch_;
        stack_.push_back(f);
        if (cut_mark_[f] != label_epoch_) continue;
        cut_.erase(std::find(cut_.begin(), cut_.end(), f));
        low = lowest_pending();
      }
    }
    if (!cut_.empty()) {
      throw std::logic_error("flowmap: cut net outside the target's cone");
    }
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (cut_mark_[*it] == label_epoch_) pool.push_back(*it);
    }
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
  std::uint32_t label_epoch_ = 0;
  std::uint32_t mark_epoch_ = 0;  ///< one per DFS over nets
  std::uint32_t search_epoch_ = 0;
  std::vector<std::uint32_t> level_;  ///< per net: longest path from a boundary
  std::vector<std::uint32_t> net_mark_;
  std::vector<std::uint32_t> cut_mark_;  ///< per net: label whose cut holds it
  std::vector<NetState> state_;
  std::vector<std::uint32_t> seen_;  ///< per flow node: last search to reach it
  std::vector<std::uint32_t> side_;  ///< per flow node: source_reaches() memo
  std::vector<std::uint32_t> stack_;
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> visited_;
  std::vector<std::uint32_t> seeds_;      ///< tails of the sink arcs
  std::vector<std::uint32_t> path_ends_;  ///< seeds that carry flow
  std::vector<std::uint32_t> cut_;        ///< non-boundary cut nets
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
