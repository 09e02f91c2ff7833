#include "flow/mincost_flow.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>

namespace mcrt {

MinCostFlow::MinCostFlow(std::size_t node_count) : demand_(node_count, 0) {}

std::size_t MinCostFlow::add_arc(std::uint32_t from, std::uint32_t to,
                                 std::int64_t cap, std::int64_t cost) {
  assert(from < demand_.size() && to < demand_.size() && cap >= 0);
  arcs_.push_back({from, to, cap, cost});
  return arcs_.size() - 1;
}

void MinCostFlow::set_demand(std::uint32_t node, std::int64_t demand) {
  demand_[node] = demand;
}

std::optional<MinCostFlow::Solution> MinCostFlow::solve() const {
  const std::size_t n = demand_.size();
  const std::size_t nodes = n + 2;
  constexpr std::int64_t kUnreached = INT64_MAX / 2;
  constexpr std::uint32_t kNoLevel = UINT32_MAX;

  // A super-source s and super-sink t connect supplies to demands so a
  // single-source loop can route everything; their arcs follow the user's.
  const auto s = static_cast<std::uint32_t>(n);
  const auto t = static_cast<std::uint32_t>(n + 1);
  std::vector<Arc> terminal;
  std::int64_t total_demand = 0;
  std::int64_t total_supply = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (demand_[v] > 0) {
      terminal.push_back({v, t, demand_[v], 0});
      total_demand += demand_[v];
    } else if (demand_[v] < 0) {
      terminal.push_back({s, v, -demand_[v], 0});
      total_supply += -demand_[v];
    }
  }
  if (total_demand != total_supply) return std::nullopt;

  // Residual network in CSR by tail, capacities local to this call. Arc i
  // yields a forward and a reverse residual arc; every node lists its
  // residual arcs in the order their arcs were added.
  const std::size_t arc_count = arcs_.size() + terminal.size();
  const auto arc_at = [&](std::size_t i) -> const Arc& {
    return i < arcs_.size() ? arcs_[i] : terminal[i - arcs_.size()];
  };
  std::vector<std::uint32_t> first(nodes + 1, 0);
  for (std::size_t i = 0; i < arc_count; ++i) {
    ++first[arc_at(i).from + 1];
    ++first[arc_at(i).to + 1];
  }
  for (std::size_t v = 0; v < nodes; ++v) first[v + 1] += first[v];
  std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
  std::vector<std::uint32_t> head(2 * arc_count);
  std::vector<std::uint32_t> rev(2 * arc_count);
  std::vector<std::int64_t> cap(2 * arc_count);
  std::vector<std::int64_t> cost(2 * arc_count);
  std::vector<std::uint32_t> forward(arcs_.size());
  for (std::size_t i = 0; i < arc_count; ++i) {
    const Arc& arc = arc_at(i);
    const std::uint32_t f = next[arc.from]++;
    const std::uint32_t b = next[arc.to]++;
    head[f] = arc.to;
    cap[f] = arc.cap;
    cost[f] = arc.cost;
    rev[f] = b;
    head[b] = arc.from;
    cap[b] = 0;
    cost[b] = -arc.cost;
    rev[b] = f;
    if (i < arcs_.size()) forward[i] = f;
  }

  // Initial potentials via SPFA (arcs may have negative costs). All residual
  // arcs with positive capacity participate. Unreachable nodes keep a large
  // potential, which is fine: they can never lie on an augmenting path.
  std::vector<std::int64_t> pi(nodes, kUnreached);
  pi[s] = 0;
  {
    // Nodes might be reachable only via constraint arcs not connected to s;
    // seed every node so Bellman-Ford validates the absence of negative
    // cycles globally (a negative cycle of infinite-capacity arcs makes the
    // problem unbounded). FIFO ring: a node is queued at most once.
    std::vector<std::uint32_t> queue(nodes);
    std::vector<std::uint8_t> in_queue(nodes, 1);
    std::vector<std::uint32_t> relax_count(nodes, 0);
    queue[0] = s;
    for (std::uint32_t v = 0; v < n; ++v) {
      pi[v] = 0;
      queue[v + 1] = v;
    }
    in_queue[t] = 0;
    std::size_t front = 0;
    std::size_t queued = n + 1;
    std::uint32_t pops = 0;
    while (queued > 0) {
      if ((++pops & 0xfffu) == 0) poll_cancel(cancel_);
      const std::uint32_t v = queue[front];
      front = front + 1 == nodes ? 0 : front + 1;
      --queued;
      in_queue[v] = 0;
      for (std::uint32_t p = first[v]; p < first[v + 1]; ++p) {
        if (cap[p] <= 0) continue;
        const std::uint32_t w = head[p];
        if (pi[v] + cost[p] < pi[w]) {
          pi[w] = pi[v] + cost[p];
          if (!in_queue[w]) {
            if (++relax_count[w] > nodes) return std::nullopt;
            in_queue[w] = 1;
            queue[(front + queued) % nodes] = w;
            ++queued;
          }
        }
      }
    }
  }

  // Primal-dual phases: one Dijkstra on reduced costs raises the
  // potentials, then Dinic blocking flows route everything the admissible
  // arcs (residual capacity > 0, reduced cost 0) can carry to t.
  Solution solution;
  std::int64_t routed = 0;
  const auto admissible = [&](std::uint32_t v, std::uint32_t p) {
    return cap[p] > 0 && cost[p] + pi[v] - pi[head[p]] == 0;
  };
  std::vector<std::int64_t> dist(nodes);
  std::vector<std::uint32_t> level(nodes);
  std::vector<std::uint32_t> current(nodes);
  std::vector<std::uint32_t> order;  // BFS queue
  std::vector<std::uint32_t> path;   // residual arcs from s, in order
  std::uint32_t steps = 0;
  while (routed < total_demand) {
    poll_cancel(cancel_);
    ++solution.phases;
    std::fill(dist.begin(), dist.end(), kUnreached);
    dist[s] = 0;
    using Item = std::pair<std::int64_t, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    pq.push({0, s});
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      if (d > dist[v]) continue;
      if (v == t) break;  // every later distance is capped at dist[t]
      for (std::uint32_t p = first[v]; p < first[v + 1]; ++p) {
        if (cap[p] <= 0) continue;
        const std::uint32_t w = head[p];
        const std::int64_t reduced = cost[p] + pi[v] - pi[w];
        if (d + reduced < dist[w]) {
          dist[w] = d + reduced;
          pq.push({dist[w], w});
        }
      }
    }
    if (dist[t] >= kUnreached) return std::nullopt;  // demand unreachable
    // Capping at dist[t] keeps reduced costs of all residual arcs
    // nonnegative even for nodes not settled this round, and makes every
    // arc of a shortest s->t path admissible.
    for (std::uint32_t v = 0; v < nodes; ++v) {
      pi[v] += std::min(dist[v], dist[t]);
    }

    while (routed < total_demand) {
      poll_cancel(cancel_);
      // BFS levels over the admissible arcs; nodes at t's level or deeper
      // need no expansion.
      std::fill(level.begin(), level.end(), kNoLevel);
      level[s] = 0;
      order.assign(1, s);
      for (std::size_t i = 0; i < order.size(); ++i) {
        const std::uint32_t v = order[i];
        if (level[v] >= level[t]) break;
        for (std::uint32_t p = first[v]; p < first[v + 1]; ++p) {
          const std::uint32_t w = head[p];
          if (level[w] == kNoLevel && admissible(v, p)) {
            level[w] = level[v] + 1;
            order.push_back(w);
          }
        }
      }
      if (level[t] == kNoLevel) break;  // t cut off: next phase

      // Blocking flow by an iterative DFS with current-arc pointers; paths
      // can run to thousands of arcs.
      std::copy(first.begin(), first.end() - 1, current.begin());
      path.clear();
      std::uint32_t v = s;
      while (true) {
        if ((++steps & 0xfffu) == 0) poll_cancel(cancel_);
        if (v == t) {
          std::int64_t push = total_demand - routed;
          for (const std::uint32_t p : path) push = std::min(push, cap[p]);
          for (const std::uint32_t p : path) {
            cap[p] -= push;
            cap[rev[p]] += push;
            solution.total_cost += push * cost[p];
          }
          routed += push;
          ++solution.augmentations;
          if (routed == total_demand) break;
          // Resume from the tail of the first saturated arc.
          std::size_t keep = 0;
          while (cap[path[keep]] > 0) ++keep;
          path.resize(keep);
          v = path.empty() ? s : head[path.back()];
          continue;
        }
        std::uint32_t& p = current[v];
        while (p < first[v + 1] &&
               !(level[head[p]] == level[v] + 1 && admissible(v, p))) {
          ++p;
        }
        if (p < first[v + 1]) {
          path.push_back(p);
          v = head[p];
          continue;
        }
        // Dead end: retreat and skip the arc that led here.
        if (path.empty()) break;  // s is blocked
        path.pop_back();
        v = path.empty() ? s : head[path.back()];
        ++current[v];
      }
    }
  }

  solution.potential.assign(pi.begin(), pi.begin() + static_cast<long>(n));
  // Unreached potentials (isolated nodes) normalize to 0.
  for (auto& p : solution.potential) {
    if (p >= kUnreached / 2) p = 0;
  }
  solution.arc_flow.resize(arcs_.size());
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    solution.arc_flow[i] = arcs_[i].cap - cap[forward[i]];
  }
  return solution;
}

}  // namespace mcrt
