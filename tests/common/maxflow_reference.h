// The max-flow reference for flow tests: textbook Dinic on an explicit
// network. FlowMap's labels run their own in-place augmenting-path search
// over the netlist; this class shares nothing with it, so the FlowMap
// differential test can solve the explicit node-split network here and
// compare cuts. Capacities are 64-bit.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

namespace mcrt::testing {

class MaxFlow {
 public:
  explicit MaxFlow(std::size_t node_count) : head_(node_count) {}

  /// Adds a directed arc with the given capacity; returns its arc index
  /// (the paired reverse arc is at index^1).
  std::size_t add_arc(std::uint32_t from, std::uint32_t to, std::int64_t cap) {
    assert(from < head_.size() && to < head_.size() && cap >= 0);
    const std::size_t idx = arcs_.size();
    arcs_.push_back({to, cap});
    arcs_.push_back({from, 0});
    initial_cap_.push_back(cap);
    initial_cap_.push_back(0);
    head_[from].push_back(static_cast<std::uint32_t>(idx));
    head_[to].push_back(static_cast<std::uint32_t>(idx + 1));
    return idx;
  }

  /// Computes max flow from source to sink, at most `limit` units
  /// (pass a large value for the true maximum). Callable once per network.
  std::int64_t solve(std::uint32_t source, std::uint32_t sink,
                     std::int64_t limit = INT64_MAX) {
    std::int64_t total = 0;
    while (total < limit && bfs(source, sink)) {
      iter_.assign(head_.size(), 0);
      while (total < limit) {
        const std::int64_t got = dfs(source, sink, limit - total);
        if (got == 0) break;
        total += got;
      }
    }
    // Final residual BFS so source_side() reflects the min cut.
    bfs(source, sink);
    return total;
  }

  /// After solve(): flow currently on arc `arc_index`.
  [[nodiscard]] std::int64_t flow_on(std::size_t arc_index) const {
    return initial_cap_[arc_index] - arcs_[arc_index].cap;
  }

  /// After solve(): true if `node` is reachable from the source in the
  /// residual graph (i.e., on the source side of the min cut).
  [[nodiscard]] bool source_side(std::uint32_t node) const {
    return level_[node] != ~0u;
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return head_.size(); }

 private:
  struct Arc {
    std::uint32_t to;
    std::int64_t cap;  // residual capacity
  };

  bool bfs(std::uint32_t source, std::uint32_t sink) {
    level_.assign(head_.size(), ~0u);
    std::deque<std::uint32_t> queue{source};
    level_[source] = 0;
    while (!queue.empty()) {
      const std::uint32_t v = queue.front();
      queue.pop_front();
      for (const std::uint32_t a : head_[v]) {
        if (arcs_[a].cap > 0 && level_[arcs_[a].to] == ~0u) {
          level_[arcs_[a].to] = level_[v] + 1;
          queue.push_back(arcs_[a].to);
        }
      }
    }
    return level_[sink] != ~0u;
  }

  std::int64_t dfs(std::uint32_t v, std::uint32_t sink, std::int64_t pushed) {
    if (v == sink) return pushed;
    for (std::size_t& i = iter_[v]; i < head_[v].size(); ++i) {
      const std::uint32_t a = head_[v][i];
      Arc& arc = arcs_[a];
      if (arc.cap <= 0 || level_[arc.to] != level_[v] + 1) continue;
      const std::int64_t got = dfs(arc.to, sink, std::min(pushed, arc.cap));
      if (got > 0) {
        arc.cap -= got;
        arcs_[a ^ 1].cap += got;
        return got;
      }
    }
    return 0;
  }

  std::vector<Arc> arcs_;
  std::vector<std::vector<std::uint32_t>> head_;  // arc indices per node
  std::vector<std::int64_t> initial_cap_;
  std::vector<std::uint32_t> level_;
  std::vector<std::size_t> iter_;
};

}  // namespace mcrt::testing
