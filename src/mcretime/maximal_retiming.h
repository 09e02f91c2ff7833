// Maximal backward/forward retiming: the mc-retiming bounds (paper §4.1).
//
// Registers are moved backward by valid mc-steps until no vertex can move;
// the number of layers moved across each vertex is the backward bound
// r_max^mc(v). Symmetrically forward for r_min^mc(v). Reset values are
// ignored (paper's design decision: the bounds stay unique; justification
// failures are handled when implementing the solution).
//
// Each phase holds every edge's registers in a FIFO queue oriented in the
// phase's direction (source end first when moving backward, sink end first
// when moving forward). A step at v pops the head of each consumed edge and
// appends one fresh register to each produced edge, so a phase costs
// O(n + m + possible_steps x degree) and allocates only as queues grow.
//
// Termination: on an acyclic movement structure no vertex can move more
// than R (total registers) layers; a vertex still movable after
// cap = R + n + 2 moves lies on a rotating cycle of compatible registers
// and is *unbounded* (no class constraint -- exactly basic-retiming
// semantics, e.g. the whole circuit in a single-class design with
// feedback). Such vertices are capped and marked; all other counts are
// exact or conservative (never too large), so the derived constraints are
// always sound. The cap is still what stops a rotating ring: a design whose
// whole fanin cone rotates steps every vertex of that cone `cap` times.
#pragma once

#include <cstdint>
#include <vector>

#include "mcretime/mcgraph.h"
#include "retime/retime_graph.h"

namespace mcrt {

struct McBounds {
  /// The basic retiming graph's "no bound", so lowering copies bounds.
  static constexpr std::int64_t kUnbounded = RetimeGraph::kNoBound;

  /// r_max^mc per vertex (>= 0; kUnbounded if on a compatible cycle).
  std::vector<std::int64_t> r_max;
  /// r_min^mc per vertex (<= 0; -kUnbounded if unbounded forward).
  std::vector<std::int64_t> r_min;

  /// Total possible valid mc-steps (paper Table 2, second #Step number):
  /// sum of capped backward + forward layer moves.
  std::size_t possible_steps = 0;
  bool hit_cap = false;
};

struct MaximalRetimingResult {
  McBounds bounds;
  /// The maximally backward-retimed graph (input to the §4.2 sharing
  /// modification; same vertex/edge ids as the input graph).
  McGraph backward_graph;
};

MaximalRetimingResult compute_mc_bounds(const McGraph& graph);

}  // namespace mcrt
