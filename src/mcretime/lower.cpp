#include "mcretime/lower.h"

namespace mcrt {

RetimeGraph lower_to_retime_graph(const McGraph& graph,
                                  const McBounds& bounds) {
  RetimeGraph out;  // creates the host as vertex 0
  const Digraph& g = graph.digraph();
  out.reserve(graph.vertex_count(), g.edge_count());
  for (std::size_t v = 1; v < graph.vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    out.add_vertex(graph.delay(vid));
    switch (graph.kind(vid)) {
      case McVertexKind::kInput:
      case McVertexKind::kOutput:
      case McVertexKind::kControlTap:
        // The interface is pinned: no registers across I/O.
        out.set_bounds(vid, 0, 0);
        break;
      case McVertexKind::kGate:
      case McVertexKind::kSeparator:
        // McBounds::kUnbounded is RetimeGraph::kNoBound: a plain copy.
        out.set_bounds(vid, bounds.r_min[v], bounds.r_max[v]);
        break;
      case McVertexKind::kHost:
        break;
    }
  }
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const EdgeId eid{static_cast<std::uint32_t>(e)};
    out.add_edge(g.from(eid), g.to(eid),
                 static_cast<std::int64_t>(graph.regs(eid).size()));
  }
  return out;
}

}  // namespace mcrt
