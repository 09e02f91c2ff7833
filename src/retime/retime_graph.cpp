#include "retime/retime_graph.h"

#include <algorithm>
#include <stdexcept>

#include "base/strings.h"
#include "graph/topo.h"

namespace mcrt {

RetimeGraph::RetimeGraph() {
  add_vertex(0, "host");
}

VertexId RetimeGraph::add_vertex(std::int64_t delay, std::string name) {
  csr_valid_ = false;
  const VertexId v = graph_.add_vertex();
  delay_.push_back(delay);
  lower_.push_back(-kNoBound);
  upper_.push_back(kNoBound);
  if (name.empty()) name = str_format("v%u", v.value());
  names_.push_back(std::move(name));
  return v;
}

EdgeId RetimeGraph::add_edge(VertexId from, VertexId to, std::int64_t weight) {
  csr_valid_ = false;
  const EdgeId e = graph_.add_edge(from, to);
  weight_.push_back(weight);
  return e;
}

const RetimeGraph::CsrView& RetimeGraph::csr() const {
  if (csr_valid_) return csr_;
  CsrView view;
  view.n = static_cast<std::uint32_t>(graph_.vertex_count());
  const std::uint32_t m = static_cast<std::uint32_t>(graph_.edge_count());
  view.out_offsets.assign(view.n + 1, 0);
  view.in_offsets.assign(view.n + 1, 0);
  for (std::uint32_t e = 0; e < m; ++e) {
    const Digraph::Edge& edge = graph_.edge(EdgeId{e});
    ++view.out_offsets[edge.from.index() + 1];
    ++view.in_offsets[edge.to.index() + 1];
  }
  for (std::uint32_t v = 0; v < view.n; ++v) {
    view.out_offsets[v + 1] += view.out_offsets[v];
    view.in_offsets[v + 1] += view.in_offsets[v];
  }
  view.out_to.resize(m);
  view.out_edge.resize(m);
  view.in_from.resize(m);
  view.in_edge.resize(m);
  std::vector<std::uint32_t> out_cursor(view.out_offsets.begin(),
                                        view.out_offsets.end() - 1);
  std::vector<std::uint32_t> in_cursor(view.in_offsets.begin(),
                                       view.in_offsets.end() - 1);
  for (std::uint32_t e = 0; e < m; ++e) {
    const Digraph::Edge& edge = graph_.edge(EdgeId{e});
    const std::uint32_t o = out_cursor[edge.from.index()]++;
    view.out_to[o] = edge.to.value();
    view.out_edge[o] = e;
    const std::uint32_t i = in_cursor[edge.to.index()]++;
    view.in_from[i] = edge.from.value();
    view.in_edge[i] = e;
  }
  csr_ = std::move(view);
  csr_valid_ = true;
  return csr_;
}

void RetimeGraph::set_bounds(VertexId v, std::int64_t lower,
                             std::int64_t upper) {
  lower_[v.index()] = lower;
  upper_[v.index()] = upper;
  if (lower > -kNoBound || upper < kNoBound) has_bounds_ = true;
}

RetimeGraph RetimeGraph::without_bounds() const {
  RetimeGraph out;
  out.reserve(vertex_count(), edge_count());
  for (std::uint32_t v = 1; v < vertex_count(); ++v) {
    out.add_vertex(delay_[v], names_[v]);
  }
  for (std::uint32_t e = 0; e < edge_count(); ++e) {
    const EdgeId id{e};
    out.add_edge(graph_.from(id), graph_.to(id), weight_[e]);
  }
  return out;
}

std::int64_t RetimeGraph::retimed_weight(
    EdgeId e, const std::vector<std::int64_t>& r) const {
  return weight_[e.index()] + r[graph_.to(e).index()] -
         r[graph_.from(e).index()];
}

std::int64_t RetimeGraph::period(const std::vector<std::int64_t>& r) const {
  // The host is sink-only in path computations: its out-edges (host -> PI)
  // would otherwise close zero-weight cycles through the environment.
  auto zero_weight = [&](EdgeId e) {
    if (graph_.from(e) == host()) return false;
    const std::int64_t w =
        r.empty() ? weight_[e.index()] : retimed_weight(e, r);
    return w == 0;
  };
  const auto dist = dag_longest_path(
      graph_, [&](VertexId v) { return delay_[v.index()]; }, zero_weight);
  if (!dist) throw std::logic_error("retime: zero-weight cycle");
  return *std::max_element(dist->begin(), dist->end());
}

std::string RetimeGraph::check_legal(
    const std::vector<std::int64_t>& r) const {
  if (r.size() != vertex_count()) return "wrong labeling size";
  if (r[host().index()] != 0) return "r(host) != 0";
  for (std::size_t e = 0; e < graph_.edge_count(); ++e) {
    const EdgeId id{static_cast<std::uint32_t>(e)};
    if (retimed_weight(id, r) < 0) {
      return str_format("negative weight on edge %zu (%s -> %s)", e,
                        names_[graph_.from(id).index()].c_str(),
                        names_[graph_.to(id).index()].c_str());
    }
  }
  for (std::size_t v = 0; v < vertex_count(); ++v) {
    if (r[v] < lower_[v] || r[v] > upper_[v]) {
      return str_format("bounds violated at %s: r=%lld not in [%lld, %lld]",
                        names_[v].c_str(), static_cast<long long>(r[v]),
                        static_cast<long long>(lower_[v]),
                        static_cast<long long>(upper_[v]));
    }
  }
  return {};
}

std::int64_t RetimeGraph::shared_register_area(
    const std::vector<std::int64_t>& r) const {
  std::int64_t area = 0;
  for (std::size_t v = 0; v < vertex_count(); ++v) {
    std::int64_t worst = 0;
    for (const EdgeId edge :
         graph_.out_edges(VertexId{static_cast<std::uint32_t>(v)})) {
      const std::int64_t w =
          r.empty() ? weight_[edge.index()] : retimed_weight(edge, r);
      worst = std::max(worst, w);
    }
    area += worst;
  }
  return area;
}

void RetimeGraph::apply(const std::vector<std::int64_t>& r) {
  const std::string problem = check_legal(r);
  if (!problem.empty()) {
    throw std::invalid_argument("retime apply: " + problem);
  }
  for (std::size_t e = 0; e < graph_.edge_count(); ++e) {
    const EdgeId id{static_cast<std::uint32_t>(e)};
    weight_[id.index()] = retimed_weight(id, r);
  }
}

}  // namespace mcrt
