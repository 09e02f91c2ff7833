#include "retime/feas.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/difference_constraints.h"
#include "retime/period_constraints.h"

namespace mcrt {
namespace {

/// One FEAS probe: labels, parent pointers and scratch, allocated once per
/// call and reused across rounds (a probe runs up to |V| rounds;
/// reallocating the arrays per round would dominate on small graphs).
class FeasProbe {
 public:
  explicit FeasProbe(const RetimeGraph& graph)
      : graph_(graph),
        csr_(graph.csr()),
        weight_(graph.weights()),
        delay_(graph.delays()),
        n_(csr_.n),
        host_(graph.host().value()),
        r_(n_, 0),
        departure_(n_, 0),
        sink_(n_, 0),
        outdegree_(n_, 0),
        queue_(n_, 0),
        queued_(n_, 0),
        pushes_(n_, 0),
        parent_(n_, kNoParent) {
    stack_.reserve(n_);
    for (std::uint32_t v = 0; v < n_; ++v) {
      if (v != host_ &&
          graph.upper_bound(VertexId{v}) < RetimeGraph::kNoBound) {
        upper_bounded_.push_back(v);
      }
    }
  }

  std::optional<std::vector<std::int64_t>> run(std::int64_t phi) {
    // Bounds that exclude 0: r(host) = 0 here, so an upper bound below 0
    // lowers its vertex and a lower bound above 0 lowers the host.
    for (const std::uint32_t v : upper_bounded_) {
      const std::int64_t upper = graph_.upper_bound(VertexId{v});
      if (upper < 0) lower(v, upper, host_);
    }
    for (std::uint32_t v = 0; v < n_; ++v) {
      if (v != host_) lower_host_for(v);
    }
    if (!repair()) return std::nullopt;

    for (std::uint32_t round = 0;; ++round) {
      ++retime_work_counters().feas_rounds;
      departures();
      bool any = false;
      // The decrement is tight against r(u) - r(v) <= w(p) - 1 for u's
      // critical zero-weight path p to v = sink[u]: every period-phi
      // retiming puts a register on p.
      for (std::uint32_t u = 0; u < n_; ++u) {
        if (departure_[u] <= phi) continue;
        if (round + 1 == n_) return std::nullopt;  // see feas.h, "Rounds"
        lower(u, r_[u] - 1, sink_[u]);
        any = true;
      }
      if (!any) break;  // fixed point: r realizes a period <= phi
      if (!repair() || has_parent_cycle(parent_, mark_)) return std::nullopt;
    }
    // Normalize to r(host) = 0 (uniform shifts change no constraint).
    const std::int64_t base = r_[host_];
    for (auto& label : r_) label -= base;
    return std::move(r_);
  }

 private:
  /// Sets r(x) to `value` < r(x), forced by `by`'s constraint, and queues x
  /// for the repair.
  void lower(std::uint32_t x, std::int64_t value, std::uint32_t by) {
    r_[x] = value;
    parent_[x] = by;
    ++relaxed_;
    if (!queued_[x]) {
      queued_[x] = 1;
      ++pushes_[x];
      queue_[(head_ + queued_count_) % n_] = x;
      ++queued_count_;
    }
  }

  /// r(host) <= r(v) - r_min(v).
  void lower_host_for(std::uint32_t v) {
    const std::int64_t lower_bound = graph_.lower_bound(VertexId{v});
    if (lower_bound > -RetimeGraph::kNoBound &&
        r_[host_] > r_[v] - lower_bound) {
      lower(host_, r_[v] - lower_bound, v);
    }
  }

  /// Lowers labels until every legality and bound constraint holds again
  /// (FIFO label correcting from the queued vertices). Returns false when
  /// the constraints have a negative cycle: a cycle of parent pointers,
  /// checked every |V| relaxations, or a vertex queued more than |V| times
  /// (more passes than a shortest path has edges).
  bool repair() {
    std::size_t next_check = relaxed_ + n_;
    while (queued_count_ > 0) {
      const std::uint32_t x = queue_[head_];
      head_ = head_ + 1 == n_ ? 0 : head_ + 1;
      --queued_count_;
      queued_[x] = 0;
      if (pushes_[x] > n_) return false;
      for (std::uint32_t i = csr_.in_offsets[x]; i < csr_.in_offsets[x + 1];
           ++i) {
        const std::uint32_t u = csr_.in_from[i];
        const std::int64_t most = r_[x] + weight_[csr_.in_edge[i]];
        if (r_[u] > most) lower(u, most, x);
      }
      if (x != host_) {
        lower_host_for(x);
      } else {
        for (const std::uint32_t v : upper_bounded_) {
          const std::int64_t most =
              r_[host_] + graph_.upper_bound(VertexId{v});
          if (r_[v] > most) lower(v, most, host_);
        }
      }
      if (relaxed_ >= next_check) {
        next_check = relaxed_ + n_;
        if (has_parent_cycle(parent_, mark_)) return false;
      }
    }
    std::fill(pushes_.begin(), pushes_.end(), 0u);
    return true;
  }

  /// Longest combinational departure times under r: max vertex-delay sum
  /// over paths of zero-weight retimed edges, host out-edges excluded
  /// (environment closure, not combinational paths), so the host only ends
  /// paths. sink[u] is the last vertex of one zero-weight path from u
  /// whose delay is departure[u]. Throws on a zero-weight cycle, which
  /// legal retimings of a legal graph cannot have.
  void departures() {
    auto active = [&](std::uint32_t from, std::uint32_t to, std::uint32_t e) {
      return from != host_ && weight_[e] + r_[to] - r_[from] == 0;
    };
    std::fill(outdegree_.begin(), outdegree_.end(), 0u);
    stack_.clear();
    for (std::uint32_t u = 0; u < n_; ++u) {
      for (std::uint32_t i = csr_.out_offsets[u]; i < csr_.out_offsets[u + 1];
           ++i) {
        if (active(u, csr_.out_to[i], csr_.out_edge[i])) ++outdegree_[u];
      }
      if (outdegree_[u] == 0) stack_.push_back(u);
    }
    // departure[v] holds the best finalized successor distance until v
    // itself is popped (all active successors finalized by then).
    std::fill(departure_.begin(), departure_.end(), 0);
    std::iota(sink_.begin(), sink_.end(), 0u);
    std::uint32_t processed = 0;
    while (!stack_.empty()) {
      const std::uint32_t v = stack_.back();
      stack_.pop_back();
      ++processed;
      const std::int64_t dist = departure_[v] + delay_[v];
      departure_[v] = dist;
      for (std::uint32_t i = csr_.in_offsets[v]; i < csr_.in_offsets[v + 1];
           ++i) {
        const std::uint32_t from = csr_.in_from[i];
        if (!active(from, v, csr_.in_edge[i])) continue;
        if (dist > departure_[from]) {
          departure_[from] = dist;
          sink_[from] = sink_[v];
        }
        if (--outdegree_[from] == 0) stack_.push_back(from);
      }
    }
    if (processed != n_) throw std::logic_error("FEAS: zero-weight cycle");
  }

  const RetimeGraph& graph_;
  const RetimeGraph::CsrView& csr_;
  std::span<const std::int64_t> weight_;
  std::span<const std::int64_t> delay_;
  std::uint32_t n_;
  std::uint32_t host_;
  std::vector<std::int64_t> r_;
  std::vector<std::int64_t> departure_;
  std::vector<std::uint32_t> sink_;  ///< last vertex of the critical path
  std::vector<std::uint32_t> outdegree_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> queue_;  ///< repair FIFO ring (n slots)
  std::uint32_t head_ = 0;
  std::uint32_t queued_count_ = 0;
  std::vector<std::uint8_t> queued_;
  std::vector<std::uint32_t> pushes_;  ///< queue entries this repair
  std::vector<std::uint32_t> parent_;  ///< vertex that forced the last fall
  std::vector<std::uint32_t> mark_;    ///< has_parent_cycle() scratch
  std::vector<std::uint32_t> upper_bounded_;  ///< non-host, finite r_max
  std::size_t relaxed_ = 0;
};

}  // namespace

std::optional<std::vector<std::int64_t>> feas_check(const RetimeGraph& graph,
                                                    std::int64_t phi) {
  ++retime_work_counters().feas_probes;
  return FeasProbe(graph).run(phi);
}

}  // namespace mcrt
