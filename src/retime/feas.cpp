#include "retime/feas.h"

#include <algorithm>
#include <stdexcept>

namespace mcrt {
namespace {

/// One FEAS probe's worth of scratch, allocated once per call and reused
/// across rounds (a probe runs up to |V| - 1 rounds; reallocating the five
/// arrays per round would dominate on small graphs).
struct FeasScratch {
  std::vector<std::int64_t> arrival;
  std::vector<std::uint32_t> indegree;
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> queue;  ///< FIFO ring for legality repair
  std::vector<std::uint8_t> queued;

  explicit FeasScratch(std::uint32_t n)
      : arrival(n, 0), indegree(n, 0), queued(n, 0) {
    stack.reserve(n);
    queue.reserve(2 * static_cast<std::size_t>(n));
  }
};

/// Longest combinational arrival times under retiming r: max vertex-delay
/// sum over paths of zero-weight retimed edges, host out-edges excluded
/// (environment closure, not combinational paths). Matches
/// dag_longest_path() on the same edge filter. Returns false on a
/// zero-weight cycle.
bool csr_arrival(const RetimeGraph::CsrView& csr,
                 std::span<const std::int64_t> weight,
                 std::span<const std::int64_t> delay, std::uint32_t host,
                 const std::vector<std::int64_t>& r, FeasScratch& scratch) {
  const std::uint32_t n = csr.n;
  auto active = [&](std::uint32_t from, std::uint32_t to, std::uint32_t e) {
    return from != host && weight[e] + r[to] - r[from] == 0;
  };
  std::fill(scratch.indegree.begin(), scratch.indegree.end(), 0u);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t i = csr.in_offsets[v]; i < csr.in_offsets[v + 1]; ++i) {
      if (active(csr.in_from[i], v, csr.in_edge[i])) ++scratch.indegree[v];
    }
  }
  scratch.stack.clear();
  for (std::uint32_t v = 0; v < n; ++v) {
    if (scratch.indegree[v] == 0) scratch.stack.push_back(v);
  }
  // arrival[v] doubles as the best finalized predecessor distance until v
  // itself is popped (all active predecessors finalized by then).
  std::fill(scratch.arrival.begin(), scratch.arrival.end(), 0);
  std::uint32_t processed = 0;
  while (!scratch.stack.empty()) {
    const std::uint32_t v = scratch.stack.back();
    scratch.stack.pop_back();
    ++processed;
    const std::int64_t dist = scratch.arrival[v] + delay[v];
    scratch.arrival[v] = dist;
    for (std::uint32_t i = csr.out_offsets[v]; i < csr.out_offsets[v + 1];
         ++i) {
      const std::uint32_t to = csr.out_to[i];
      if (!active(v, to, csr.out_edge[i])) continue;
      scratch.arrival[to] = std::max(scratch.arrival[to], dist);
      if (--scratch.indegree[to] == 0) scratch.stack.push_back(to);
    }
  }
  return processed == n;
}

}  // namespace

std::optional<std::vector<std::int64_t>> feas_check(const RetimeGraph& graph,
                                                    std::int64_t phi) {
  const RetimeGraph::CsrView& csr = graph.csr();
  const std::span<const std::int64_t> weight = graph.weights();
  const std::span<const std::int64_t> delay = graph.delays();
  const std::uint32_t n = csr.n;
  const std::uint32_t host = graph.host().value();
  std::vector<std::int64_t> r(n, 0);
  FeasScratch scratch(n);

  for (std::uint32_t round = 0; round + 1 < n; ++round) {
    if (!csr_arrival(csr, weight, delay, host, r, scratch)) {
      // Zero-weight cycle: cannot happen if the input graph was legal,
      // since retiming preserves cycle weights.
      throw std::logic_error("FEAS: zero-weight cycle");
    }
    bool any = false;
    // The host participates like any vertex (Leiserson-Saxe run FEAS on G
    // including v_h): r(host) increments shift every other label down after
    // normalization, which is how solutions with negative labels - moving
    // registers backward from the outputs - are reached.
    for (std::uint32_t v = 0; v < n; ++v) {
      if (scratch.arrival[v] > phi) {
        ++r[v];
        any = true;
      }
    }
    if (!any) break;  // fixed point: current r realizes some period <= phi
    // Legality repair: timing increments can drive edge weights negative
    // (w_r(e_uv) < 0 means r(v) must rise to r(u) - w(e)). Relax to a fixed
    // point; this preserves the pointwise invariant r <= r* for any legal
    // witness r* >= r, and terminates because cycle weights are positive.
    scratch.queue.clear();
    std::size_t head = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      scratch.queue.push_back(v);
      scratch.queued[v] = 1;
    }
    while (head < scratch.queue.size()) {
      const std::uint32_t u = scratch.queue[head++];
      scratch.queued[u] = 0;
      for (std::uint32_t i = csr.out_offsets[u]; i < csr.out_offsets[u + 1];
           ++i) {
        const std::uint32_t v = csr.out_to[i];
        const std::int64_t needed = r[u] - weight[csr.out_edge[i]];
        if (r[v] < needed) {
          r[v] = needed;
          if (!scratch.queued[v]) {
            scratch.queued[v] = 1;
            scratch.queue.push_back(v);
          }
        }
      }
    }
  }
  // Normalize to r(host) = 0 (uniform shifts do not change edge weights).
  const std::int64_t base = r[host];
  if (base != 0) {
    for (auto& label : r) label -= base;
  }
  // For an infeasible phi the final labeling can be illegal;
  // Leiserson-Saxe guarantee legality only for feasible phi, so verify
  // both legality and the achieved period.
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t i = csr.out_offsets[v]; i < csr.out_offsets[v + 1];
         ++i) {
      if (weight[csr.out_edge[i]] + r[csr.out_to[i]] - r[v] < 0) {
        return std::nullopt;
      }
    }
  }
  if (!csr_arrival(csr, weight, delay, host, r, scratch)) {
    throw std::logic_error("FEAS: zero-weight cycle");
  }
  const std::int64_t period =
      *std::max_element(scratch.arrival.begin(), scratch.arrival.end());
  if (period > phi) return std::nullopt;
  return r;
}

}  // namespace mcrt
