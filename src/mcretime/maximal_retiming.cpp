#include "mcretime/maximal_retiming.h"

#include <deque>
#include <optional>
#include <utility>

namespace mcrt {
namespace {

/// One edge's registers as a FIFO running in the phase's direction: the
/// live registers are regs[head..], the head is the end a step consumes at
/// and new registers are appended at the end a step produces at.
struct RegQueue {
  std::vector<McReg> regs;
  std::size_t head = 0;

  [[nodiscard]] bool empty() const { return head == regs.size(); }
  [[nodiscard]] ClassId front_class() const { return regs[head].cls; }
  void pop() {
    // Drop the consumed prefix once it outgrows the live part; a compaction
    // moves fewer registers than the pops since the last one.
    ++head;
    if (head > regs.size() - head) {
      regs.erase(regs.begin(),
                 regs.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
  /// The live registers, head first.
  [[nodiscard]] std::vector<McReg> take() && {
    regs.erase(regs.begin(), regs.begin() + static_cast<std::ptrdiff_t>(head));
    return std::move(regs);
  }
};

/// Runs one maximal-retiming phase in direction `dir` over `queues` (one
/// per edge of `graph`, oriented as in RegQueue): a step pops the head of
/// each consumed edge and appends to each produced edge (McGraph's
/// consumed_edges/produced_edges). `fresh_uid` names each produced
/// register, in produced-edge order. Returns per-vertex move counts; a
/// vertex still movable after `cap` moves rotates a compatible cycle and
/// is flagged in `capped_vertices`.
template <typename FreshUid>
std::vector<std::int64_t> run_phase(const McGraph& graph,
                                    McGraph::StepDirection dir,
                                    std::int64_t cap,
                                    std::vector<RegQueue>& queues,
                                    std::vector<bool>& capped_vertices,
                                    bool& hit_cap, FreshUid fresh_uid) {
  const std::size_t n = graph.vertex_count();
  const Digraph& g = graph.digraph();
  std::vector<std::int64_t> count(n, 0);
  capped_vertices.assign(n, false);

  // The class of the layer a step at v would move, or nullopt: McGraph's
  // step rule on the queues' heads.
  auto step_class = [&](VertexId v) {
    return graph.step_class(v, dir, [&](EdgeId e) -> std::optional<ClassId> {
      const RegQueue& q = queues[e.index()];
      if (q.empty()) return std::nullopt;
      return q.front_class();
    });
  };

  std::deque<std::uint32_t> worklist;
  std::vector<bool> in_worklist(n, false);
  for (std::size_t v = 1; v < n; ++v) {
    worklist.push_back(static_cast<std::uint32_t>(v));
    in_worklist[v] = true;
  }

  while (!worklist.empty()) {
    const VertexId v{worklist.front()};
    worklist.pop_front();
    in_worklist[v.index()] = false;
    if (capped_vertices[v.index()]) continue;
    std::int64_t& moves = count[v.index()];
    const std::int64_t moves_before = moves;
    std::optional<ClassId> cls = step_class(v);
    for (; cls && moves < cap; ++moves, cls = step_class(v)) {
      for (const EdgeId e : graph.consumed_edges(v, dir)) {
        queues[e.index()].pop();
      }
      for (const EdgeId e : graph.produced_edges(v, dir)) {
        McReg reg;
        reg.cls = *cls;
        reg.uid = fresh_uid();
        queues[e.index()].regs.push_back(reg);
      }
    }
    if (cls) {
      // Still movable at the cap: the vertex rotates a compatible cycle.
      capped_vertices[v.index()] = true;
      hit_cap = true;
    }
    if (moves == moves_before) continue;
    // The far ends of the produced edges gained registers to consume.
    for (const EdgeId e : graph.produced_edges(v, dir)) {
      const VertexId u =
          dir == McGraph::StepDirection::kBackward ? g.from(e) : g.to(e);
      if (!in_worklist[u.index()]) {
        in_worklist[u.index()] = true;
        worklist.push_back(u.value());
      }
    }
  }
  return count;
}

}  // namespace

MaximalRetimingResult compute_mc_bounds(const McGraph& graph) {
  MaximalRetimingResult result;
  const std::size_t n = graph.vertex_count();
  const std::size_t m = graph.digraph().edge_count();
  const std::int64_t cap =
      static_cast<std::int64_t>(graph.total_edge_registers()) +
      static_cast<std::int64_t>(n) + 2;

  McBounds& bounds = result.bounds;
  bounds.r_max.assign(n, 0);
  bounds.r_min.assign(n, 0);
  std::vector<bool> capped;

  // Backward phase: the queues run source to sink, i.e. in sequence order,
  // and are written back as the retimed copy for the sharing modifier.
  {
    McGraph& backward_graph = result.backward_graph;
    backward_graph = graph;
    std::vector<RegQueue> queues(m);
    for (std::size_t e = 0; e < m; ++e) {
      queues[e].regs = std::move(
          backward_graph.regs_mutable(EdgeId{static_cast<std::uint32_t>(e)}));
    }
    const auto count =
        run_phase(graph, McGraph::StepDirection::kBackward, cap, queues, capped,
                  bounds.hit_cap, [&] { return backward_graph.fresh_uid(); });
    for (std::size_t v = 0; v < n; ++v) {
      bounds.r_max[v] = capped[v] ? McBounds::kUnbounded : count[v];
      bounds.possible_steps += static_cast<std::size_t>(count[v]);
    }
    for (std::size_t e = 0; e < m; ++e) {
      backward_graph.regs_mutable(EdgeId{static_cast<std::uint32_t>(e)}) =
          std::move(queues[e]).take();
    }
  }
  // Forward phase: the queues run sink to source (reversed sequences). Its
  // registers are discarded, so they need no uids.
  {
    std::vector<RegQueue> queues(m);
    for (std::size_t e = 0; e < m; ++e) {
      const auto& regs = graph.regs(EdgeId{static_cast<std::uint32_t>(e)});
      queues[e].regs.assign(regs.rbegin(), regs.rend());
    }
    const auto count =
        run_phase(graph, McGraph::StepDirection::kForward, cap, queues, capped,
                  bounds.hit_cap, [] { return std::uint32_t{0}; });
    for (std::size_t v = 0; v < n; ++v) {
      bounds.r_min[v] = capped[v] ? -McBounds::kUnbounded : -count[v];
      bounds.possible_steps += static_cast<std::size_t>(count[v]);
    }
  }
  return result;
}

}  // namespace mcrt
