#include "retime/period_constraints.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>

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
/// The host vertex is sink-only in all path computations: its out-edges
/// close the environment loop (PO -> host -> PI) and do not correspond to
/// combinational paths, so they are never relaxed.
class WdSweep {
 public:
  explicit WdSweep(const RetimeGraph& graph)
      : csr_(graph.csr()),
        edge_weight_(graph.weights()),
        vertex_delay_(graph.delays()),
        host_(graph.host().value()),
        stamp_(csr_.n, 0),
        weight_(csr_.n, 0),
        delay_(csr_.n, 0),
        indegree_(csr_.n, 0) {}

  /// Computes W and D from `source`; reached()/weight()/delay() then
  /// describe that source until the next run().
  void run(std::uint32_t source) {
    ++epoch_;
    settled_.clear();

    // Phase 1: W via Dijkstra (binary heap on a reused vector).
    weight_[source] = 0;
    stamp_[source] = epoch_;
    heap_.assign(1, {0, source});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [w, v] = heap_.back();
      heap_.pop_back();
      if (w != weight_[v]) continue;
      settled_.push_back(v);
      if (v == host_) continue;  // host is sink-only
      for (std::uint32_t i = csr_.out_offsets[v]; i < csr_.out_offsets[v + 1];
           ++i) {
        const std::uint32_t to = csr_.out_to[i];
        const std::int64_t cand = w + edge_weight_[csr_.out_edge[i]];
        if (stamp_[to] != epoch_ || cand < weight_[to]) {
          stamp_[to] = epoch_;
          weight_[to] = cand;
          heap_.push_back({cand, to});
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        }
      }
    }

    // Phase 2: D via Kahn's order over the tight edges. Every reached
    // vertex but the source has a tight in-edge (its shortest-path tree
    // parent), so the order starts at the source alone; a vertex left
    // unprocessed sits on a tight, i.e. zero-weight, cycle.
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
  /// Out-edge slot `i` of settled, non-host vertex `v` is tight. Its head
  /// is reached: settling `v` relaxed it.
  [[nodiscard]] bool tight(std::uint32_t v, std::uint32_t i) const {
    return weight_[csr_.out_to[i]] ==
           weight_[v] + edge_weight_[csr_.out_edge[i]];
  }

  const RetimeGraph::CsrView& csr_;
  std::span<const std::int64_t> edge_weight_;
  std::span<const std::int64_t> vertex_delay_;
  std::uint32_t host_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;  ///< == epoch_: reached this run
  std::vector<std::int64_t> weight_;
  std::vector<std::int64_t> delay_;
  std::vector<std::uint32_t> indegree_;
  std::vector<std::pair<std::int64_t, std::uint32_t>> heap_;
  std::vector<std::uint32_t> settled_;
  std::vector<std::uint32_t> stack_;
};

/// Runs `visit(u, sweep)` after the W/D computation from every non-host
/// source u, in ascending order, polling `cancel` once per source.
template <class Visit>
void sweep_sources(const RetimeGraph& graph, const CancelToken* cancel,
                   Visit&& visit) {
  ++retime_work_counters().wd_sweeps;
  WdSweep sweep(graph);
  const auto n = static_cast<std::uint32_t>(graph.vertex_count());
  for (std::uint32_t u = 1; u < n; ++u) {  // host is never a path source
    poll_cancel(cancel);
    sweep.run(u);
    visit(u, sweep);
  }
}

/// Merges the values of `fresh` (consumed) into the sorted, distinct
/// `values`, so a sweep holds one source's values at a time.
void merge_distinct(std::vector<std::int64_t>& values,
                    std::vector<std::int64_t>& fresh,
                    std::vector<std::int64_t>& scratch) {
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  scratch.clear();
  std::set_union(values.begin(), values.end(), fresh.begin(), fresh.end(),
                 std::back_inserter(scratch));
  values.swap(scratch);
  fresh.clear();
}

void append_slow_vertex_markers(const RetimeGraph& graph, std::int64_t phi,
                                std::vector<DifferenceConstraint>& out) {
  // Single-vertex "paths": a gate slower than phi alone is infeasible.
  for (std::size_t v = 1; v < graph.vertex_count(); ++v) {
    if (graph.delay(VertexId{static_cast<std::uint32_t>(v)}) > phi) {
      // r(v) - r(v) <= -1: unsatisfiable marker.
      out.push_back({static_cast<std::uint32_t>(v),
                     static_cast<std::uint32_t>(v), -1});
    }
  }
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
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!sweep.reached(v)) continue;
    labels.reached[v] = true;
    labels.weight[v] = sweep.weight(v);
    labels.delay[v] = sweep.delay(v);
  }
  return labels;
}

void PeriodConstraintTable::build(const RetimeGraph& graph,
                                  std::int64_t phi_lo, std::int64_t phi_hi,
                                  const CancelToken* cancel) {
  const std::size_t n = graph.vertex_count();
  built_ = false;
  phi_lo_ = phi_lo;
  phi_hi_ = phi_hi;
  offsets_.assign(n + 1, 0);
  to_.clear();
  weight_.clear();
  delay_.clear();
  candidates_.clear();
  std::vector<std::int64_t> fresh;
  std::vector<std::int64_t> scratch;
  sweep_sources(graph, cancel, [&](std::uint32_t u, const WdSweep& sweep) {
    const std::int64_t delay_u = graph.delay(VertexId{u});
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!sweep.reached(v)) continue;
      const std::int64_t d = sweep.delay(v);
      if (phi_lo <= d && d <= phi_hi) fresh.push_back(d);
      if (v == u) continue;
      // Emitted at phi iff max(d - d(u), d - d(v)) <= phi < d (before the
      // bound pruning); keep the pair if that interval meets the range.
      if (d <= phi_lo ||
          d - std::min(delay_u, graph.delay(VertexId{v})) > phi_hi) {
        continue;
      }
      to_.push_back(v);
      weight_.push_back(sweep.weight(v));
      delay_.push_back(d);
    }
    offsets_[u + 1] = static_cast<std::uint32_t>(to_.size());
    merge_distinct(candidates_, fresh, scratch);
  });
  built_ = true;
}

void PeriodConstraintTable::append(
    const RetimeGraph& graph, std::int64_t phi,
    std::vector<DifferenceConstraint>& out) const {
  if (!covers(phi) || offsets_.size() != graph.vertex_count() + 1) {
    throw std::logic_error(
        "period-constraint table does not cover this graph and period");
  }
  const std::size_t n = graph.vertex_count();
  for (std::uint32_t u = 1; u < n; ++u) {
    const std::int64_t delay_u = graph.delay(VertexId{u});
    const std::int64_t upper_u = graph.upper_bound(VertexId{u});
    for (std::uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      const std::int64_t d = delay_[i];
      if (d <= phi) continue;
      const VertexId v{to_[i]};
      // Shenoy-Rudell pruning: only minimally violating pairs.
      if (d - delay_u > phi || d - graph.delay(v) > phi) continue;
      // Maheshwari-Sapatnekar bound pruning (the refinement §5.1 of the
      // paper anticipates): the class bounds already imply
      // r(u) - r(v) <= upper(u) - lower(v); if that is at most W-1 the
      // period constraint is redundant.
      const std::int64_t lower_v = graph.lower_bound(v);
      if (upper_u < RetimeGraph::kNoBound &&
          lower_v > -RetimeGraph::kNoBound &&
          upper_u - lower_v <= weight_[i] - 1) {
        continue;
      }
      out.push_back({u, v.value(), weight_[i] - 1});
    }
  }
  append_slow_vertex_markers(graph, phi, out);
}

void generate_period_constraints(const RetimeGraph& graph, std::int64_t phi,
                                 std::vector<DifferenceConstraint>& out,
                                 const CancelToken* cancel) {
  PeriodConstraintTable table;
  table.build(graph, phi, phi, cancel);
  table.append(graph, phi, out);
}

void generate_period_constraints_unpruned(
    const RetimeGraph& graph, std::int64_t phi,
    std::vector<DifferenceConstraint>& out) {
  const std::size_t n = graph.vertex_count();
  sweep_sources(graph, nullptr, [&](std::uint32_t u, const WdSweep& sweep) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!sweep.reached(v) || v == u) continue;
      if (sweep.delay(v) <= phi) continue;
      out.push_back({u, v, sweep.weight(v) - 1});
    }
  });
  append_slow_vertex_markers(graph, phi, out);
}

std::vector<std::int64_t> candidate_periods(const RetimeGraph& graph,
                                            const CancelToken* cancel) {
  std::vector<std::int64_t> values;
  std::vector<std::int64_t> fresh;
  std::vector<std::int64_t> scratch;
  const std::size_t n = graph.vertex_count();
  sweep_sources(graph, cancel, [&](std::uint32_t, const WdSweep& sweep) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (sweep.reached(v)) fresh.push_back(sweep.delay(v));
    }
    merge_distinct(values, fresh, scratch);
  });
  return values;
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
