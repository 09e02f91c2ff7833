// The multiple-class retiming graph G^mc = (V, E, d, l) (paper §3.2).
//
// Like a Leiserson-Saxe retiming graph, but each edge carries the ordered
// *sequence* of registers on the interconnection (l(e) = [l_1..l_w], l_1
// closest to the source), each register labeled with its class and its
// synchronous/asynchronous reset values s, a in {0,1,-}.
//
// Additional vertex kinds beyond gates and the host:
//  - kInput/kOutput: primary I/O, pinned (r = 0), connected to the host;
//  - kControlTap: the pseudo primary output introduced for every non-clock
//    control signal (paper Fig. 2b), so control signals stay correct under
//    retiming: the signal consumed by the registers of a class is the value
//    at the *end* of the tap edge (after any registers retiming parks
//    there). A clock not driven by a primary input gets one too;
//  - kSeparator: zero-delay vertices inserted by the §4.2 register-sharing
//    modification.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/ids.h"
#include "graph/digraph.h"
#include "mcretime/register_class.h"
#include "netlist/netlist.h"

namespace mcrt {

enum class McVertexKind : std::uint8_t {
  kHost,
  kGate,
  kInput,
  kOutput,
  kControlTap,
  kSeparator,
};

/// One register instance on an mc-graph edge.
struct McReg {
  ClassId cls;
  ResetVal sync_val = ResetVal::kDontCare;
  ResetVal async_val = ResetVal::kDontCare;
  /// Unique instance id, stable across moves; used for reset-state
  /// provenance during relocation. Assigned at graph construction.
  std::uint32_t uid = 0;
};

class McGraph {
 public:
  McGraph() = default;

  // --- structure -----------------------------------------------------------
  [[nodiscard]] const Digraph& digraph() const noexcept { return graph_; }
  [[nodiscard]] VertexId host() const noexcept { return VertexId{0}; }
  [[nodiscard]] std::size_t vertex_count() const {
    return graph_.vertex_count();
  }
  [[nodiscard]] McVertexKind kind(VertexId v) const {
    return kind_[v.index()];
  }
  [[nodiscard]] std::int64_t delay(VertexId v) const {
    return delay_[v.index()];
  }
  /// For kGate/kInput/kOutput: the originating netlist node.
  [[nodiscard]] NodeId origin_node(VertexId v) const {
    return origin_node_[v.index()];
  }
  /// For kControlTap: the original control net the tap observes.
  [[nodiscard]] NetId tap_net(VertexId v) const { return tap_net_[v.index()]; }

  [[nodiscard]] const std::vector<McReg>& regs(EdgeId e) const {
    return regs_[e.index()];
  }
  [[nodiscard]] std::vector<McReg>& regs_mutable(EdgeId e) {
    return regs_[e.index()];
  }
  /// Sink pin index for edges into kGate vertices (LUT fanin position).
  [[nodiscard]] std::uint32_t sink_pin(EdgeId e) const {
    return sink_pin_[e.index()];
  }

  [[nodiscard]] const ClassAssignment& classes() const noexcept {
    return classes_;
  }

  [[nodiscard]] std::uint32_t fresh_uid() { return next_uid_++; }

  /// Adopts the class table (and uid space) of another graph; used when a
  /// transformation rebuilds the graph structurally.
  void classes_from(const McGraph& other) {
    classes_ = other.classes_;
    next_uid_ = other.next_uid_;
  }

  // --- construction (used by build_mc_graph and the sharing modifier) -------
  VertexId add_vertex(McVertexKind kind, std::int64_t delay,
                      NodeId origin = {}, NetId tap = {});
  EdgeId add_edge(VertexId from, VertexId to, std::vector<McReg> regs,
                  std::uint32_t sink_pin = 0);

  /// Capacity hint for bulk construction from large netlists.
  void reserve(std::size_t vertices, std::size_t edges) {
    graph_.reserve(vertices, edges);
    kind_.reserve(vertices);
    delay_.reserve(vertices);
    origin_node_.reserve(vertices);
    tap_net_.reserve(vertices);
    regs_.reserve(edges);
    sink_pin_.reserve(edges);
  }

  // --- mc-retiming steps (paper Fig. 3) --------------------------------------
  /// A backward step at v consumes the register at the source end of every
  /// fanout edge and produces one at the sink end of every fanin edge; a
  /// forward step consumes at the sink end of the fanins and produces at
  /// the source end of the fanouts.
  enum class StepDirection : std::uint8_t { kBackward, kForward };
  [[nodiscard]] std::span<const EdgeId> consumed_edges(
      VertexId v, StepDirection dir) const {
    return dir == StepDirection::kBackward ? graph_.out_edges(v)
                                           : graph_.in_edges(v);
  }
  [[nodiscard]] std::span<const EdgeId> produced_edges(
      VertexId v, StepDirection dir) const {
    return dir == StepDirection::kBackward ? graph_.in_edges(v)
                                           : graph_.out_edges(v);
  }

  /// The step rule, ignoring reset values: the class of the layer a step at
  /// v in direction `dir` would move, or std::nullopt if the step is not
  /// valid. `near_class(e)` returns the class of the register at consumed
  /// edge e's near end (the end the step consumes at), or std::nullopt
  /// when e holds none, so callers that keep registers elsewhere (the §4.1
  /// stepper's queues) decide steps by this same rule.
  template <typename NearClass>
  [[nodiscard]] std::optional<ClassId> step_class(
      VertexId v, StepDirection dir, NearClass&& near_class) const {
    if (!movable(v)) return std::nullopt;
    // A vertex without produced edges (e.g. a constant generator moving
    // backward) would delete the layer without replacement.
    const auto consumed = consumed_edges(v, dir);
    if (consumed.empty() || produced_edges(v, dir).empty()) {
      return std::nullopt;
    }
    std::optional<ClassId> cls;
    for (const EdgeId e : consumed) {
      const std::optional<ClassId> near = near_class(e);
      if (!near || (cls && *cls != *near)) return std::nullopt;
      cls = near;
    }
    return cls;
  }
  /// step_class() on this graph's register sequences.
  [[nodiscard]] std::optional<ClassId> step_class(VertexId v,
                                                  StepDirection dir) const;
  /// Would a backward step at v be valid, ignoring reset values? Returns the
  /// class of the layer that would move, or std::nullopt.
  [[nodiscard]] std::optional<ClassId> backward_step_class(VertexId v) const {
    return step_class(v, StepDirection::kBackward);
  }
  /// Would a forward step at v be valid (class compatibility only)?
  [[nodiscard]] std::optional<ClassId> forward_step_class(VertexId v) const {
    return step_class(v, StepDirection::kForward);
  }

  /// Executes a backward step (first register of each fanout edge removed, a
  /// fresh register of the same class appended to each fanin edge). Reset
  /// values of the new registers default to '-'; relocation fills them in.
  /// Returns the created registers' uids (one per fanin edge, in edge order).
  std::vector<std::uint32_t> apply_backward_step(VertexId v);
  /// Executes a forward step (last register of each fanin edge removed, a
  /// fresh register prepended to each fanout edge).
  std::vector<std::uint32_t> apply_forward_step(VertexId v);

  /// Total registers summed over edges (no sharing; the mc-graph view).
  [[nodiscard]] std::size_t total_edge_registers() const;

  /// Structural invariants; empty = ok.
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  [[nodiscard]] bool movable(VertexId v) const {
    const McVertexKind k = kind_[v.index()];
    return k == McVertexKind::kGate || k == McVertexKind::kSeparator;
  }

  Digraph graph_;
  std::vector<McVertexKind> kind_;
  std::vector<std::int64_t> delay_;
  std::vector<NodeId> origin_node_;
  std::vector<NetId> tap_net_;
  std::vector<std::vector<McReg>> regs_;
  std::vector<std::uint32_t> sink_pin_;
  ClassAssignment classes_;
  std::uint32_t next_uid_ = 0;

  friend McGraph build_mc_graph(const Netlist& netlist,
                                const ClassOptions& options);
};

/// Builds the mc-graph of a netlist: one vertex per node, control taps for
/// every distinct non-clock control net, host closure edges, and per-pin
/// edges whose register sequences come from tracing driver chains through
/// registers. Clock nets must be primary inputs.
McGraph build_mc_graph(const Netlist& netlist,
                       const ClassOptions& options = {});

}  // namespace mcrt
