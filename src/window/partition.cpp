#include "window/partition.h"

#include <algorithm>
#include <queue>

namespace mcrt {
namespace {

bool is_movable(const McGraph& graph, std::uint32_t v) {
  const McVertexKind kind = graph.kind(VertexId{v});
  return kind == McVertexKind::kGate || kind == McVertexKind::kSeparator;
}

/// Max-heap entry: score first, then *smaller* vertex id wins ties, so the
/// growth order — and therefore the whole partition — is deterministic.
struct FrontierEntry {
  std::int64_t score;
  std::uint32_t vertex;
  bool operator<(const FrontierEntry& other) const noexcept {
    if (score != other.score) return score < other.score;
    return vertex > other.vertex;
  }
};

/// Grows all windows round-robin, one claim per turn. Entries go stale when
/// a vertex is claimed elsewhere or its score rises (a neighbor joined the
/// window after the push); stale entries are skipped / superseded by fresh
/// pushes, the standard lazy-heap trick, so total work is O(E log E).
class Growth {
 public:
  Growth(const McGraph& graph, std::size_t window_count, std::size_t cap)
      : graph_(graph),
        cap_(cap),
        owner_(graph.vertex_count(), WindowPartition::kUnassigned),
        frontiers_(window_count),
        members_(window_count),
        has_class_(window_count) {
    const std::size_t classes = graph.classes().class_count();
    for (auto& set : has_class_) set.assign(classes, false);
  }

  void seed(std::size_t window, std::uint32_t vertex) {
    frontiers_[window].push({0, vertex});
  }

  /// Runs the round-robin growth until every frontier is exhausted.
  void run() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t w = 0; w < frontiers_.size(); ++w) {
        if (members_[w].size() >= cap_) continue;
        if (claim_best(w)) progressed = true;
      }
    }
  }

  /// Claims `vertex` for `window` unconditionally (leftover sweep).
  void claim(std::size_t window, std::uint32_t vertex) {
    owner_[vertex] = static_cast<std::uint32_t>(window);
    members_[window].push_back(vertex);
    absorb_classes(window, vertex);
    push_neighbors(window, vertex);
  }

  [[nodiscard]] const std::vector<std::uint32_t>& owner() const {
    return owner_;
  }
  [[nodiscard]] std::size_t smallest_window() const {
    std::size_t best = 0;
    for (std::size_t w = 1; w < members_.size(); ++w) {
      if (members_[w].size() < members_[best].size()) best = w;
    }
    return best;
  }
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> take_members() {
    return std::move(members_);
  }

 private:
  bool claim_best(std::size_t window) {
    auto& frontier = frontiers_[window];
    while (!frontier.empty()) {
      const FrontierEntry entry = frontier.top();
      frontier.pop();
      if (owner_[entry.vertex] != WindowPartition::kUnassigned) continue;
      claim(window, entry.vertex);
      return true;
    }
    return false;
  }

  void absorb_classes(std::size_t window, std::uint32_t vertex) {
    auto& present = has_class_[window];
    const Digraph& g = graph_.digraph();
    const VertexId vid{vertex};
    for (const EdgeId e : g.in_edges(vid)) {
      for (const McReg& reg : graph_.regs(e)) {
        present[reg.cls.index()] = true;
      }
    }
    for (const EdgeId e : g.out_edges(vid)) {
      for (const McReg& reg : graph_.regs(e)) {
        present[reg.cls.index()] = true;
      }
    }
  }

  void push_neighbors(std::size_t window, std::uint32_t vertex) {
    const Digraph& g = graph_.digraph();
    const VertexId vid{vertex};
    for (const EdgeId e : g.in_edges(vid)) {
      consider(window, g.from(e).value(), e);
    }
    for (const EdgeId e : g.out_edges(vid)) {
      consider(window, g.to(e).value(), e);
    }
  }

  void consider(std::size_t window, std::uint32_t candidate, EdgeId via) {
    if (candidate >= owner_.size()) return;
    if (owner_[candidate] != WindowPartition::kUnassigned) return;
    if (!is_movable(graph_, candidate)) return;
    frontiers_[window].push({score(window, candidate, via), candidate});
  }

  /// Affinity of `candidate` for `window`: +2 per edge already internal,
  /// and when class-aware +3 per register of an in-window class on the
  /// connecting edges — register chains follow their class inside.
  std::int64_t score(std::size_t window, std::uint32_t candidate,
                     EdgeId via) const {
    (void)via;
    const Digraph& g = graph_.digraph();
    const VertexId vid{candidate};
    std::int64_t total = 0;
    const auto tally = [&](EdgeId e, std::uint32_t other) {
      if (owner_[other] != window) return;
      total += 2;
      for (const McReg& reg : graph_.regs(e)) {
        if (has_class_[window][reg.cls.index()]) total += 3;
      }
    };
    for (const EdgeId e : g.in_edges(vid)) tally(e, g.from(e).value());
    for (const EdgeId e : g.out_edges(vid)) tally(e, g.to(e).value());
    return total;
  }

  const McGraph& graph_;
  std::size_t cap_;
  std::vector<std::uint32_t> owner_;
  std::vector<std::priority_queue<FrontierEntry>> frontiers_;
  std::vector<std::vector<std::uint32_t>> members_;
  std::vector<std::vector<bool>> has_class_;
};

}  // namespace

WindowPartition partition_mc_graph(const McGraph& graph,
                                   const PartitionOptions& options) {
  WindowPartition result;
  const std::size_t n = graph.vertex_count();
  result.window_of.assign(n, WindowPartition::kUnassigned);

  std::vector<std::uint32_t> movable;
  for (std::size_t v = 0; v < n; ++v) {
    if (is_movable(graph, static_cast<std::uint32_t>(v))) {
      movable.push_back(static_cast<std::uint32_t>(v));
    }
  }
  if (movable.empty()) return result;

  const std::size_t cap = std::max<std::size_t>(options.max_window, 1);
  const std::size_t window_count = (movable.size() + cap - 1) / cap;
  Growth growth(graph, window_count, cap);

  // Evenly spaced seeds over the movable list (which follows netlist
  // construction order, a strong locality signal), rotated by the seed so
  // refinement rounds get shifted partitions.
  const std::size_t stride = movable.size() / window_count;
  const std::size_t rotation =
      stride > 1 ? static_cast<std::size_t>(
                       (options.seed * 0x9e3779b97f4a7c15ull) % stride)
                 : 0;
  for (std::size_t w = 0; w < window_count; ++w) {
    growth.seed(w, movable[(w * stride + rotation) % movable.size()]);
  }
  growth.run();

  // Leftovers (disconnected pockets, capacity overflow): sweep in id order,
  // claiming each for the currently smallest window and letting BFS absorb
  // its connected pocket before the next sweep step.
  for (const std::uint32_t v : movable) {
    if (growth.owner()[v] != WindowPartition::kUnassigned) continue;
    growth.claim(growth.smallest_window(), v);
    growth.run();
  }
  std::vector<std::vector<std::uint32_t>> members = growth.take_members();

  result.window_of = growth.owner();
  result.windows.resize(window_count);
  for (std::size_t w = 0; w < window_count; ++w) {
    result.windows[w] = std::move(members[w]);
    std::sort(result.windows[w].begin(), result.windows[w].end());
  }
  // Drop empty windows (fixed counts larger than the movable set).
  result.windows.erase(
      std::remove_if(result.windows.begin(), result.windows.end(),
                     [](const auto& w) { return w.empty(); }),
      result.windows.end());
  // Renumber window_of after the erase.
  std::fill(result.window_of.begin(), result.window_of.end(),
            WindowPartition::kUnassigned);
  for (std::size_t w = 0; w < result.windows.size(); ++w) {
    for (const std::uint32_t v : result.windows[w]) {
      result.window_of[v] = static_cast<std::uint32_t>(w);
    }
  }

  // --- cut statistics ------------------------------------------------------
  const Digraph& g = graph.digraph();
  const std::size_t classes = graph.classes().class_count();
  // Class presence per (final) window, for split-frontier accounting.
  std::vector<std::vector<bool>> has_class(result.windows.size());
  for (auto& set : has_class) set.assign(classes, false);
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const EdgeId eid{static_cast<std::uint32_t>(e)};
    for (const std::uint32_t end :
         {g.from(eid).value(), g.to(eid).value()}) {
      const std::uint32_t w = result.window_of[end];
      if (w == WindowPartition::kUnassigned) continue;
      for (const McReg& reg : graph.regs(eid)) {
        has_class[w][reg.cls.index()] = true;
      }
    }
  }
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const EdgeId eid{static_cast<std::uint32_t>(e)};
    const std::uint32_t wf = result.window_of[g.from(eid).value()];
    const std::uint32_t wt = result.window_of[g.to(eid).value()];
    if (wf == wt || wf == WindowPartition::kUnassigned ||
        wt == WindowPartition::kUnassigned) {
      continue;
    }
    ++result.cut_edges;
    result.cut_registers += graph.regs(eid).size();
    for (const McReg& reg : graph.regs(eid)) {
      if (has_class[wf][reg.cls.index()] && has_class[wt][reg.cls.index()]) {
        ++result.split_class_edges;
        break;
      }
    }
  }
  return result;
}

}  // namespace mcrt
