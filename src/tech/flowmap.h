// FlowMap: depth-optimal k-LUT technology mapping (Cong & Ding, 1994).
//
// The paper runs mc-retiming on a *mapped* netlist of FPGA primitives and
// remaps the combinational part afterwards ("remap" in §6). This module
// provides both steps: it covers a k-bounded subject graph with k-input
// LUTs of provably minimum depth, computing for every node a label (its
// optimal LUT depth) by a unit-capacity augmenting-path search over the
// node's cone (at most k+1 paths, then one residual sweep for the min
// cut), then realizes the chosen k-feasible cuts as LUTs.
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
  /// one flow search over its cone); a stop request unwinds with
  /// CancelledError.
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
