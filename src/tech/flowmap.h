// FlowMap: depth-optimal k-LUT technology mapping (Cong & Ding, 1994).
//
// The paper runs mc-retiming on a *mapped* netlist of FPGA primitives and
// remaps the combinational part afterwards ("remap" in §6). This module
// provides both steps: it covers a k-bounded subject graph with k-input
// LUTs of provably minimum depth, computing for every node a label (its
// optimal LUT depth) by a unit-capacity max-flow over the node's cone,
// then realizes the chosen k-feasible cuts as LUTs.
//
// A label costs about the size of the LUT it forms, not of the cone:
// - a DFS from the node walks only the label-p sink cluster (every net on
//   a path from a label-p net to the node has label p) and collects its
//   other fanins, the tails of the sink arcs;
// - at most k+1 augmenting paths run backward from those tails;
// - the minimal min cut is found from the sink side: each flow path is
//   walked back to its first net whose in-node a memoized backward
//   residual search reaches from a boundary;
// - the cut is ordered as a DFS of the whole cone pops it (boundary nets
//   first, ascending), by that DFS pruned to nets above the lowest level
//   of a cut net not yet pushed and stopped once all are pushed.
//
// Mapping boundaries: primary inputs and register outputs are sources;
// primary outputs, register D pins and register control pins (EN, sync,
// async, clk) are roots. Registers pass through unchanged.
//
// The labels' independent reference is exhaustive k-cut enumeration
// (verify/cut_depth.h), which computes the same minimum depth straight
// from its definition; the cuts' reference is a textbook Dinic max-flow on
// the explicit node-split network (tests/common/maxflow_reference.h).
// tests/tech/flowmap_differential_test.cpp compares against both.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/cancel.h"
#include "netlist/netlist.h"

namespace mcrt {

struct FlowMapOptions {
  std::uint32_t k = 4;            ///< LUT input count (XC4000: 4)
  std::int64_t lut_delay = 10;    ///< delay units per LUT level
  /// Depth-preserving area recovery: while realizing LUTs, a net with
  /// depth slack whose fanins are all demanded anyway reuses its trivial
  /// cut instead of duplicating the depth-optimal cone. Never increases
  /// the mapping depth; helps on duplication-heavy cones, can fragment
  /// otherwise - off by default, measure per design.
  bool area_recovery = false;
  /// Cooperative cancellation: polled once per labeled node (each label is
  /// one flow search); a stop request unwinds with CancelledError.
  const CancelToken* cancel = nullptr;
};

struct FlowMapResult {
  Netlist mapped;
  std::uint32_t depth = 0;        ///< maximum label = LUT depth of mapping
  std::size_t lut_count = 0;
};

/// FlowMap's labelling phase, indexed by the input's net ids: every
/// LUT-driven net's label (minimum LUT depth) and the k-feasible cut that
/// achieves it. Mapping sources (PIs, register outputs, constants) have
/// label 0 and an empty cut.
struct FlowMapLabels {
  std::vector<std::uint32_t> label;
  std::vector<std::uint32_t> cut_start;  ///< per net: offset into cut_nets
  std::vector<std::uint32_t> cut_size;   ///< per net: cut width
  std::vector<std::uint32_t> cut_nets;   ///< every cut, back to back
  /// Work of the label searches: the nets and flow nodes they touched
  /// (deterministic; a work bound that does not depend on the machine).
  std::uint64_t label_visits = 0;

  [[nodiscard]] std::span<const std::uint32_t> cut(std::uint32_t net) const {
    return std::span<const std::uint32_t>(cut_nets).subspan(cut_start[net],
                                                            cut_size[net]);
  }
};

/// Labels `input` (same preconditions as flowmap_map); flowmap_map is this
/// followed by cut selection and LUT realization.
FlowMapLabels flowmap_label(const Netlist& input,
                            const FlowMapOptions& options);

/// Maps the combinational part of `input` (which must be k-bounded: every
/// node has at most k fanins; run decompose_to_binary first for arbitrary
/// netlists) into k-LUTs. Node delays in the result are set to
/// options.lut_delay for LUTs and 0 elsewhere.
FlowMapResult flowmap_map(const Netlist& input, const FlowMapOptions& options);

}  // namespace mcrt
