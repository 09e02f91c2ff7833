#include "retime/feas.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "graph/difference_constraints.h"
#include "retime/period_constraints.h"

namespace mcrt {
namespace {

/// One FEAS probe: labels, parent pointers and scratch, allocated once per
/// call and reused across rounds (a probe runs up to |V| rounds;
/// reallocating the arrays per round would dominate on small graphs).
///
/// A transposed probe runs on the reversed graph with the bounds negated
/// and swapped, through the same CSR arrays with the directions exchanged.
/// q = -r maps the original system onto the transposed one (a W/D path
/// reversed keeps its weight and delay), so its greatest solution is minus
/// the least solution of the original. The host keeps ending paths there,
/// where an exact transpose would have it start them; with d(host) = 0 the
/// two give the same feasible set, since the pair of a path that ends or
/// starts at the host is implied by the pair of the path without that
/// edge plus the edge's circuit constraint.
class FeasProbe {
 public:
  FeasProbe(const RetimeGraph& graph, bool transposed)
      : graph_(graph),
        transposed_(transposed),
        out_offsets_(transposed ? graph.csr().in_offsets
                                : graph.csr().out_offsets),
        out_to_(transposed ? graph.csr().in_from : graph.csr().out_to),
        out_edge_(transposed ? graph.csr().in_edge : graph.csr().out_edge),
        in_offsets_(transposed ? graph.csr().out_offsets
                               : graph.csr().in_offsets),
        in_from_(transposed ? graph.csr().out_to : graph.csr().in_from),
        in_edge_(transposed ? graph.csr().out_edge : graph.csr().in_edge),
        weight_(graph.weights()),
        delay_(graph.delays()),
        n_(graph.csr().n),
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
      if (v != host_ && r_max(v) < RetimeGraph::kNoBound) {
        upper_bounded_.push_back(v);
      }
    }
  }

  /// Replaces the all-zero start by the least upper bound that the circuit
  /// and the upper bounds put on every solution with r(host) = 0: the
  /// shortest path to the host or to an upper-bounded vertex x, plus
  /// r_max(x) (Dijkstra from all of them at once over the reversed edges).
  /// A vertex that reaches neither is unbounded above, and the set of such
  /// vertices is closed under successors. It starts at
  ///   K = max(finite start) + |V| + 2:
  /// every constraint leaving that set ends in it, and the constraints
  /// within it have bounds >= -1, so its labels stay in [K - |V| + 1, K],
  /// above every constraint from the rest. (A lower bound above that
  /// lowers the host instead, which the normalization undoes.) The run()
  /// that follows then returns the greatest solution with r(host) = 0 on
  /// the bounded vertices. Returns which are unbounded.
  std::vector<std::uint8_t> start_from_upper_bounds() {
    constexpr std::int64_t kUnreached = RetimeGraph::kNoBound;
    std::fill(r_.begin(), r_.end(), kUnreached);
    std::vector<std::pair<std::int64_t, std::uint32_t>> heap;
    r_[host_] = 0;
    heap.push_back({0, host_});
    for (const std::uint32_t v : upper_bounded_) {
      r_[v] = r_max(v);
      heap.push_back({r_[v], v});
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [label, x] = heap.back();
      heap.pop_back();
      if (label != r_[x]) continue;
      for (std::uint32_t i = in_offsets_[x]; i < in_offsets_[x + 1]; ++i) {
        const std::uint32_t u = in_from_[i];
        const std::int64_t most = label + weight_[in_edge_[i]];
        if (most < r_[u]) {
          r_[u] = most;
          heap.push_back({most, u});
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
    }
    std::vector<std::uint8_t> unbounded(n_, 0);
    std::int64_t far = 0;
    for (std::uint32_t v = 0; v < n_; ++v) {
      if (r_[v] == kUnreached) {
        unbounded[v] = 1;
      } else {
        far = std::max(far, r_[v]);
      }
    }
    far += static_cast<std::int64_t>(n_) + 2;
    for (std::uint32_t v = 0; v < n_; ++v) {
      if (unbounded[v]) r_[v] = far;
    }
    return unbounded;
  }

  std::optional<std::vector<std::int64_t>> run(std::int64_t phi) {
    // Bounds the start violates (from the all-zero start: bounds that
    // exclude 0) lower their vertex, or the host for a lower bound.
    for (const std::uint32_t v : upper_bounded_) {
      const std::int64_t most = r_[host_] + r_max(v);
      if (r_[v] > most) lower(v, most, host_);
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

  /// The bounds of the (possibly transposed) system.
  [[nodiscard]] std::int64_t r_max(std::uint32_t v) const {
    return transposed_ ? -graph_.lower_bound(VertexId{v})
                       : graph_.upper_bound(VertexId{v});
  }
  [[nodiscard]] std::int64_t r_min(std::uint32_t v) const {
    return transposed_ ? -graph_.upper_bound(VertexId{v})
                       : graph_.lower_bound(VertexId{v});
  }

  /// r(host) <= r(v) - r_min(v).
  void lower_host_for(std::uint32_t v) {
    const std::int64_t lower_bound = r_min(v);
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
      for (std::uint32_t i = in_offsets_[x]; i < in_offsets_[x + 1]; ++i) {
        const std::uint32_t u = in_from_[i];
        const std::int64_t most = r_[x] + weight_[in_edge_[i]];
        if (r_[u] > most) lower(u, most, x);
      }
      if (x != host_) {
        lower_host_for(x);
      } else {
        for (const std::uint32_t v : upper_bounded_) {
          const std::int64_t most = r_[host_] + r_max(v);
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
      for (std::uint32_t i = out_offsets_[u]; i < out_offsets_[u + 1]; ++i) {
        if (active(u, out_to_[i], out_edge_[i])) ++outdegree_[u];
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
      for (std::uint32_t i = in_offsets_[v]; i < in_offsets_[v + 1]; ++i) {
        const std::uint32_t from = in_from_[i];
        if (!active(from, v, in_edge_[i])) continue;
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
  bool transposed_;
  std::span<const std::uint32_t> out_offsets_;  ///< of the probed direction
  std::span<const std::uint32_t> out_to_;
  std::span<const std::uint32_t> out_edge_;
  std::span<const std::uint32_t> in_offsets_;
  std::span<const std::uint32_t> in_from_;
  std::span<const std::uint32_t> in_edge_;
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
  auto labels = FeasProbe(graph, /*transposed=*/true).run(phi);
  if (labels) {
    for (auto& label : *labels) label = -label;
  }
  return labels;
}

std::optional<PeriodBox> period_box(const RetimeGraph& graph,
                                    std::int64_t phi) {
  PeriodBox box;
  for (const bool transposed : {false, true}) {
    ++retime_work_counters().feas_probes;
    FeasProbe probe(graph, transposed);
    const std::vector<std::uint8_t> unbounded =
        probe.start_from_upper_bounds();
    auto labels = probe.run(phi);
    if (!labels) return std::nullopt;
    for (std::size_t v = 0; v < labels->size(); ++v) {
      if (unbounded[v]) (*labels)[v] = RetimeGraph::kNoBound;
      if (transposed) (*labels)[v] = -(*labels)[v];
    }
    (transposed ? box.lo : box.hi) = std::move(*labels);
  }
  return box;
}

}  // namespace mcrt
