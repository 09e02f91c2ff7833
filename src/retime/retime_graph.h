// The Leiserson-Saxe retiming graph G = (V, E, d, w).
//
// Vertices model combinational gates plus one host vertex (index 0) that
// stands for the environment; edges carry the register count w(e) >= 0 and
// vertices the propagation delay d(v) >= 0. A retiming is an integer vertex
// labeling r with r(host) = 0 by convention; it transforms edge weights as
//
//     w_r(e_uv) = w(e_uv) + r(v) - r(u).
//
// This struct extends the classic model with optional per-vertex retiming
// bounds, which is exactly how multiple-class retiming reduces to basic
// retiming (paper §4.1): class constraints become
// r_min^mc(v) <= r(v) <= r_max^mc(v), encoded as host-relative difference
// constraints during solving.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace mcrt {

class RetimeGraph {
 public:
  static constexpr std::int64_t kNoBound =
      std::numeric_limits<std::int64_t>::max() / 2;

  RetimeGraph();

  /// Adds a vertex with delay d(v); returns its id. Vertex 0 is the host.
  VertexId add_vertex(std::int64_t delay, std::string name = {});
  /// Adds an edge with w(e) registers.
  EdgeId add_edge(VertexId from, VertexId to, std::int64_t weight);

  /// Capacity hint for bulk construction (lowering, window extraction).
  void reserve(std::size_t vertices, std::size_t edges) {
    graph_.reserve(vertices, edges);
    delay_.reserve(vertices);
    lower_.reserve(vertices);
    upper_.reserve(vertices);
    names_.reserve(vertices);
    weight_.reserve(edges);
  }

  [[nodiscard]] VertexId host() const noexcept { return VertexId{0}; }
  [[nodiscard]] const Digraph& digraph() const noexcept { return graph_; }
  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return graph_.vertex_count();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return graph_.edge_count();
  }

  [[nodiscard]] std::int64_t delay(VertexId v) const {
    return delay_[v.index()];
  }
  [[nodiscard]] std::int64_t weight(EdgeId e) const {
    return weight_[e.index()];
  }
  [[nodiscard]] const std::string& name(VertexId v) const {
    return names_[v.index()];
  }

  /// Class-constraint bounds; defaults mean unconstrained.
  void set_bounds(VertexId v, std::int64_t lower, std::int64_t upper);
  [[nodiscard]] std::int64_t lower_bound(VertexId v) const {
    return lower_[v.index()];
  }
  [[nodiscard]] std::int64_t upper_bound(VertexId v) const {
    return upper_[v.index()];
  }
  [[nodiscard]] bool has_bounds() const noexcept { return has_bounds_; }
  /// The same vertices, edges, delays and weights (ids preserved) with every
  /// bound dropped: the unbounded problem FEAS solves.
  [[nodiscard]] RetimeGraph without_bounds() const;

  /// w_r(e) for a retiming labeling.
  [[nodiscard]] std::int64_t retimed_weight(
      EdgeId e, const std::vector<std::int64_t>& r) const;

  /// Flat CSR snapshot of the topology for hot solver loops (FEAS probes,
  /// period evaluation): parallel (neighbor, edge-id) arrays per direction,
  /// indexed by the same VertexId/EdgeId values as the Digraph. Built
  /// lazily and cached; add_vertex/add_edge invalidate it, while apply()
  /// only changes weights and keeps it valid (solvers read weights through
  /// weights(), not the view).
  struct CsrView {
    std::uint32_t n = 0;
    std::vector<std::uint32_t> out_offsets;  ///< n + 1
    std::vector<std::uint32_t> out_to;
    std::vector<std::uint32_t> out_edge;
    std::vector<std::uint32_t> in_offsets;  ///< n + 1
    std::vector<std::uint32_t> in_from;
    std::vector<std::uint32_t> in_edge;
  };
  [[nodiscard]] const CsrView& csr() const;

  /// Flat per-edge weights / per-vertex delays, indexed by id value.
  [[nodiscard]] std::span<const std::int64_t> weights() const noexcept {
    return weight_;
  }
  [[nodiscard]] std::span<const std::int64_t> delays() const noexcept {
    return delay_;
  }

  /// Clock period of the graph under retiming r: the maximum delay of any
  /// zero-weight path. r empty = current weights. Throws on a zero-weight
  /// cycle (illegal graph).
  [[nodiscard]] std::int64_t period(const std::vector<std::int64_t>& r = {}) const;

  /// Checks legality: w_r >= 0 everywhere, bounds respected, r(host) == 0.
  /// Returns an empty string if legal, else a description of the violation.
  [[nodiscard]] std::string check_legal(const std::vector<std::int64_t>& r) const;

  /// Total registers with fanout sharing: sum over vertices of
  /// max_{fanout e} w_r(e) (single-fanout vertices contribute w_r).
  [[nodiscard]] std::int64_t shared_register_area(
      const std::vector<std::int64_t>& r = {}) const;

  /// Destructively applies r to the edge weights.
  void apply(const std::vector<std::int64_t>& r);

 private:
  Digraph graph_;
  std::vector<std::int64_t> delay_;
  std::vector<std::int64_t> weight_;
  std::vector<std::int64_t> lower_;
  std::vector<std::int64_t> upper_;
  std::vector<std::string> names_;
  bool has_bounds_ = false;
  mutable CsrView csr_;
  mutable bool csr_valid_ = false;
};

/// Result of a retiming computation.
struct RetimeSolution {
  bool feasible = false;
  std::int64_t period = 0;
  std::vector<std::int64_t> r;
};

}  // namespace mcrt
