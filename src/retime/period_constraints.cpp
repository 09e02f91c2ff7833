#include "retime/period_constraints.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "retime/feas.h"

namespace mcrt {
namespace {

/// Per-source W/D computation over the graph's CSR view, with scratch
/// reused across the sources of a sweep. W(source, v) is an ordinary
/// Dijkstra over edge weights; D(source, v), the maximum delay among
/// *minimum-weight* paths, then falls out of a longest-path DP over the
/// "tight" subgraph (edges with W[to] == W[from] + w(e)), which is a DAG
/// because a tight cycle would be a zero-weight cycle. A naive
/// lexicographic Dijkstra with a max-delay tiebreak is NOT correct here:
/// along zero-weight edges a low-delay vertex can settle before a
/// higher-delay predecessor.
///
/// A run with a finite `width` settles only the vertices whose reduced
/// distance W(source, v) + p(v) - p(source) is at most `width`, in a bucket
/// queue over 0..width (Dial); p is the potential given at construction,
/// which must make every reduced edge weight w(e) + p(to) - p(from) >= 0
/// on the edges the run can reach. Reduced distances do not fall along a
/// path, so every tight path into a settled vertex runs through settled
/// vertices only and D is exact on them. An unlimited run settles
/// everything reachable, in a binary heap, and needs no potential.
///
/// The host vertex is sink-only in all path computations: its out-edges
/// close the environment loop (PO -> host -> PI) and do not correspond to
/// combinational paths, so they are never relaxed.
class WdSweep {
 public:
  static constexpr std::int64_t kUnlimited =
      std::numeric_limits<std::int64_t>::max();

  explicit WdSweep(const RetimeGraph& graph,
                   std::span<const std::int64_t> potential = {})
      : csr_(graph.csr()),
        edge_weight_(graph.weights()),
        vertex_delay_(graph.delays()),
        potential_(potential),
        host_(graph.host().value()),
        stamp_(csr_.n, 0),
        weight_(csr_.n, 0),
        delay_(csr_.n, 0),
        indegree_(csr_.n, 0) {}

  /// Computes W and D from `source` within `width`; settled()/reached()/
  /// weight()/delay() then describe that source until the next run().
  void run(std::uint32_t source, std::int64_t width = kUnlimited) {
    ++epoch_;
    settled_.clear();
    weight_[source] = 0;
    stamp_[source] = epoch_;
    if (width == kUnlimited) {
      settle_by_heap(source);
    } else {
      settle_by_buckets(source, width);
    }
    retime_work_counters().wd_settled += settled_.size();
    longest_tight_paths(source);
  }

  /// The vertices the last run settled (= reached), in settling order.
  [[nodiscard]] std::span<const std::uint32_t> settled() const {
    return settled_;
  }
  [[nodiscard]] bool reached(std::uint32_t v) const {
    return stamp_[v] == epoch_;
  }
  [[nodiscard]] std::int64_t weight(std::uint32_t v) const {
    return weight_[v];
  }
  [[nodiscard]] std::int64_t delay(std::uint32_t v) const {
    return delay_[v];
  }

 private:
  /// Settles v and relaxes its out-edges. `admit(to, w)` queues a shorter
  /// tentative distance w or refuses it; a refused vertex stays unreached,
  /// so every reached vertex is settled by the end of the run.
  template <class Admit>
  void settle(std::uint32_t v, Admit&& admit) {
    settled_.push_back(v);
    if (v == host_) return;  // host is sink-only
    for (std::uint32_t i = csr_.out_offsets[v]; i < csr_.out_offsets[v + 1];
         ++i) {
      const std::uint32_t to = csr_.out_to[i];
      const std::int64_t cand = weight_[v] + edge_weight_[csr_.out_edge[i]];
      if (reached(to) && cand >= weight_[to]) continue;
      if (!admit(to, cand)) continue;
      stamp_[to] = epoch_;
      weight_[to] = cand;
    }
  }

  void settle_by_heap(std::uint32_t source) {
    heap_.assign(1, {0, source});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [w, v] = heap_.back();
      heap_.pop_back();
      if (w != weight_[v]) continue;
      settle(v, [&](std::uint32_t to, std::int64_t cand) {
        heap_.push_back({cand, to});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        return true;
      });
    }
  }

  void settle_by_buckets(std::uint32_t source, std::int64_t width) {
    const std::int64_t base = potential_[source];
    const auto bucket_of = [&](std::uint32_t v, std::int64_t w) {
      return w + potential_[v] - base;
    };
    const auto buckets = static_cast<std::size_t>(width) + 1;
    if (buckets_.size() < buckets) buckets_.resize(buckets);
    buckets_[0].push_back(source);
    std::size_t queued = 1;
    for (std::size_t b = 0; b < buckets && queued > 0; ++b) {
      // Zero reduced weights append to the bucket being drained.
      for (std::size_t k = 0; k < buckets_[b].size(); ++k) {
        --queued;
        const std::uint32_t v = buckets_[b][k];
        if (bucket_of(v, weight_[v]) != static_cast<std::int64_t>(b)) {
          continue;  // superseded by a shorter distance
        }
        settle(v, [&](std::uint32_t to, std::int64_t cand) {
          const std::int64_t key = bucket_of(to, cand);
          if (key > width) return false;
          buckets_[static_cast<std::size_t>(key)].push_back(to);
          ++queued;
          return true;
        });
      }
      buckets_[b].clear();
    }
  }

  /// D via Kahn's order over the tight edges. Every settled vertex but the
  /// source has a tight in-edge from a settled one (its shortest-path tree
  /// parent), so the order starts at the source alone; a vertex left
  /// unprocessed sits on a tight, i.e. zero-weight, cycle.
  void longest_tight_paths(std::uint32_t source) {
    for (const std::uint32_t v : settled_) {
      indegree_[v] = 0;
      delay_[v] = -1;
    }
    for (const std::uint32_t v : settled_) {
      if (v == host_) continue;
      for (std::uint32_t i = csr_.out_offsets[v]; i < csr_.out_offsets[v + 1];
           ++i) {
        if (tight(v, i)) ++indegree_[csr_.out_to[i]];
      }
    }
    std::size_t processed = 0;
    stack_.clear();
    if (indegree_[source] == 0) {
      delay_[source] = vertex_delay_[source];
      stack_.push_back(source);
    }
    while (!stack_.empty()) {
      const std::uint32_t v = stack_.back();
      stack_.pop_back();
      ++processed;
      if (v == host_) continue;
      for (std::uint32_t i = csr_.out_offsets[v]; i < csr_.out_offsets[v + 1];
           ++i) {
        if (!tight(v, i)) continue;
        const std::uint32_t to = csr_.out_to[i];
        delay_[to] = std::max(delay_[to], delay_[v] + vertex_delay_[to]);
        if (--indegree_[to] == 0) stack_.push_back(to);
      }
    }
    if (processed != settled_.size()) {
      // A tight cycle is a zero-weight cycle: illegal input graph.
      throw std::logic_error("retime: zero-weight cycle in W/D computation");
    }
  }

  /// Out-edge slot `i` of settled, non-host vertex `v` is tight. Its head
  /// counts only if reached, hence settled: a cut-off head holds a stale
  /// weight from an earlier run.
  [[nodiscard]] bool tight(std::uint32_t v, std::uint32_t i) const {
    const std::uint32_t to = csr_.out_to[i];
    return reached(to) &&
           weight_[to] == weight_[v] + edge_weight_[csr_.out_edge[i]];
  }

  const RetimeGraph::CsrView& csr_;
  std::span<const std::int64_t> edge_weight_;
  std::span<const std::int64_t> vertex_delay_;
  std::span<const std::int64_t> potential_;
  std::uint32_t host_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;  ///< == epoch_: reached this run
  std::vector<std::int64_t> weight_;
  std::vector<std::int64_t> delay_;
  std::vector<std::uint32_t> indegree_;
  std::vector<std::pair<std::int64_t, std::uint32_t>> heap_;
  std::vector<std::vector<std::uint32_t>> buckets_;  ///< by reduced distance
  std::vector<std::uint32_t> settled_;
  std::vector<std::uint32_t> stack_;
};

/// Orders one source's pairs, out[first..], by target.
void sort_targets(std::vector<DifferenceConstraint>& out, std::size_t first) {
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const auto& a, const auto& b) { return a.v < b.v; });
}

}  // namespace

RetimeWorkCounters& retime_work_counters() {
  thread_local RetimeWorkCounters counters;
  return counters;
}

WdLabels compute_wd_from_source(const RetimeGraph& graph, VertexId source) {
  const std::size_t n = graph.vertex_count();
  WdSweep sweep(graph);
  sweep.run(source.value());
  WdLabels labels;
  labels.weight.assign(n, 0);
  labels.delay.assign(n, 0);
  labels.reached.assign(n, false);
  for (const std::uint32_t v : sweep.settled()) {
    labels.reached[v] = true;
    labels.weight[v] = sweep.weight(v);
    labels.delay[v] = sweep.delay(v);
  }
  return labels;
}

void generate_period_constraints(const RetimeGraph& graph, std::int64_t phi,
                                 std::vector<DifferenceConstraint>& out,
                                 const CancelToken* cancel) {
  const std::uint32_t host = graph.host().value();
  const std::optional<PeriodBox> box = period_box(graph, phi);
  if (!box) {
    out.push_back({host, host, -1});  // r - r <= -1: unsatisfiable marker
    return;
  }
  const std::vector<std::int64_t>& hi = box->hi;
  const std::vector<std::int64_t>& lo = box->lo;
  constexpr std::int64_t kNoBound = RetimeGraph::kNoBound;
  ++retime_work_counters().wd_sweeps;
  WdSweep sweep(graph, lo);
  const auto n = static_cast<std::uint32_t>(graph.vertex_count());
  for (std::uint32_t u = 1; u < n; ++u) {  // host is never a path source
    poll_cancel(cancel);
    // The box implies r(u) - r(v) <= hi(u) - lo(v), so (u, v) is needed
    // only if W(u,v) <= hi(u) - lo(v), i.e. W_lo(u,v) <= hi(u) - lo(u).
    // W_lo(u,v) = 0 puts no register on a min-weight path under lo, which
    // meets phi, so D(u,v) <= phi: a source the box fixes needs no sweep.
    const bool boxed = hi[u] < kNoBound && lo[u] > -kNoBound;
    if (boxed && hi[u] == lo[u]) continue;
    sweep.run(u, boxed ? hi[u] - lo[u] : WdSweep::kUnlimited);
    const std::size_t first = out.size();
    const std::int64_t delay_u = graph.delay(VertexId{u});
    for (const std::uint32_t v : sweep.settled()) {
      if (v == u) continue;
      const std::int64_t d = sweep.delay(v);
      if (d <= phi) continue;
      // Shenoy-Rudell pruning: only minimally violating pairs.
      if (d - delay_u > phi || d - graph.delay(VertexId{v}) > phi) continue;
      // The box test, for the sources swept without a cut-off.
      if (hi[u] < kNoBound && lo[v] > -kNoBound &&
          hi[u] - lo[v] <= sweep.weight(v) - 1) {
        continue;
      }
      out.push_back({u, v, sweep.weight(v) - 1});
    }
    sort_targets(out, first);
  }
  // The box constraints the pruned pairs rely on, where the class bounds
  // (circuit constraints) are looser.
  for (std::uint32_t v = 1; v < n; ++v) {
    const VertexId vid{v};
    if (hi[v] < graph.upper_bound(vid)) out.push_back({v, host, hi[v]});
    if (lo[v] > graph.lower_bound(vid)) out.push_back({host, v, -lo[v]});
  }
}

void generate_period_constraints_unpruned(
    const RetimeGraph& graph, std::int64_t phi,
    std::vector<DifferenceConstraint>& out, const CancelToken* cancel) {
  ++retime_work_counters().wd_sweeps;
  WdSweep sweep(graph);
  const auto n = static_cast<std::uint32_t>(graph.vertex_count());
  for (std::uint32_t u = 1; u < n; ++u) {  // host is never a path source
    poll_cancel(cancel);
    sweep.run(u);
    const std::size_t first = out.size();
    for (const std::uint32_t v : sweep.settled()) {
      if (v == u || sweep.delay(v) <= phi) continue;
      out.push_back({u, v, sweep.weight(v) - 1});
    }
    sort_targets(out, first);
  }
  // Single-vertex "paths": a gate slower than phi alone is infeasible.
  for (std::uint32_t v = 1; v < n; ++v) {
    if (graph.delay(VertexId{v}) > phi) {
      out.push_back({v, v, -1});  // r(v) - r(v) <= -1: unsatisfiable marker
    }
  }
}

void generate_circuit_constraints(const RetimeGraph& graph,
                                  std::vector<DifferenceConstraint>& out) {
  const Digraph& g = graph.digraph();
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const EdgeId id{static_cast<std::uint32_t>(e)};
    out.push_back({g.from(id).value(), g.to(id).value(), graph.weight(id)});
  }
  if (!graph.has_bounds()) return;
  const std::uint32_t host = graph.host().value();
  for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    if (vid == graph.host()) continue;
    const std::int64_t upper = graph.upper_bound(vid);
    const std::int64_t lower = graph.lower_bound(vid);
    if (upper < RetimeGraph::kNoBound) {
      out.push_back({vid.value(), host, upper});
    }
    if (lower > -RetimeGraph::kNoBound) {
      out.push_back({host, vid.value(), -lower});
    }
  }
}

}  // namespace mcrt
