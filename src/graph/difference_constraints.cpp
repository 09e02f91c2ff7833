#include "graph/difference_constraints.h"

namespace mcrt {

std::optional<std::vector<std::int64_t>> solve_difference_constraints(
    std::size_t variable_count,
    const std::vector<DifferenceConstraint>& constraints,
    std::size_t* relaxations) {
  const auto n = static_cast<std::uint32_t>(variable_count);
  // Constraint x(u) - x(v) <= b is an edge v -> u with weight b in the
  // shortest-path formulation: dist(u) <= dist(v) + b. CSR by tail, each
  // tail's edges in constraint order.
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (const auto& c : constraints) ++offsets[c.v + 1];
  for (std::uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::uint32_t> head(offsets.begin(), offsets.end() - 1);
  std::vector<std::uint32_t> to(constraints.size());
  std::vector<std::int64_t> weight(constraints.size());
  for (const auto& c : constraints) {
    to[head[c.v]] = c.u;
    weight[head[c.v]++] = c.bound;
  }

  std::vector<std::int64_t> dist(n, 0);  // virtual source = 0
  std::vector<std::uint32_t> parent(n, kNoParent);
  std::vector<std::uint32_t> mark;
  std::vector<std::uint8_t> in_queue(n, 1);
  std::vector<std::uint32_t> relax_count(n, 0);
  // FIFO ring: a vertex is queued at most once, so n slots suffice.
  std::vector<std::uint32_t> queue(n);
  for (std::uint32_t i = 0; i < n; ++i) queue[i] = i;
  std::size_t front = 0;
  std::size_t queued = n;
  std::size_t relaxed = 0;
  std::size_t next_check = n;
  const auto done = [&](std::optional<std::vector<std::int64_t>> result) {
    if (relaxations != nullptr) *relaxations += relaxed;
    return result;
  };

  while (queued > 0) {
    const std::uint32_t v = queue[front];
    front = front + 1 == n ? 0 : front + 1;
    --queued;
    in_queue[v] = 0;
    for (std::uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const std::uint32_t u = to[i];
      if (dist[v] + weight[i] >= dist[u]) continue;
      dist[u] = dist[v] + weight[i];
      parent[u] = v;
      // Amortized O(1) per relaxation: one O(V) walk every V relaxations.
      if (++relaxed >= next_check) {
        next_check += n;
        if (has_parent_cycle(parent, mark)) return done(std::nullopt);
      }
      if (!in_queue[u]) {
        // A vertex relaxed more than |V| times lies on a negative cycle.
        if (++relax_count[u] > variable_count) return done(std::nullopt);
        in_queue[u] = 1;
        queue[(front + queued) % n] = u;
        ++queued;
      }
    }
  }
  return done(std::move(dist));
}

bool has_parent_cycle(std::span<const std::uint32_t> parent,
                      std::vector<std::uint32_t>& mark) {
  // mark[v] = 1 + the start of the walk that first reached v, 0 = unseen.
  mark.assign(parent.size(), 0);
  for (std::uint32_t start = 0; start < parent.size(); ++start) {
    std::uint32_t v = start;
    while (v != kNoParent && mark[v] == 0) {
      mark[v] = start + 1;
      v = parent[v];
    }
    if (v != kNoParent && mark[v] == start + 1) return true;
  }
  return false;
}

}  // namespace mcrt
