// Bounded-size, register-class-aware partitioning of the mc-graph
// (windowed retiming step 1; docs/WINDOWING.md).
//
// The windowed flow clusters the movable vertices (kGate, kSeparator) into
// regions of bounded size and solves each region as an independent
// retiming problem with its boundary frozen. The partitioner is a seeded
// multi-source BFS growth in the mockturtle windowing idiom:
//
//  - seeds are spread evenly over the movable vertices (a seed-derived
//    rotation makes successive rounds produce *shifted* partitions, which
//    is what the boundary-refinement sweep exploits: round-k windows
//    straddle round-(k-1) cuts);
//  - regions grow one claim per round-robin turn, popping the
//    best-scoring frontier vertex: score rewards edges into the region
//    and, when `class_aware`, additionally rewards registers whose class
//    (EN / reset combination) is already present inside, so register
//    chains of one class — exactly the structures multiple-class steps
//    move together — are absorbed whole instead of being cut;
//  - pinned vertices (host, I/O, control taps) stay unassigned: they are
//    frozen at r = 0 by the §4.1 bounds and belong to every boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "mcretime/mcgraph.h"

namespace mcrt {

struct PartitionOptions {
  /// Movable-vertex capacity per window; min-area runs one W/D sweep per
  /// window.
  std::size_t max_window = 1024;
  /// Fixed window count; 0 derives ceil(movable / max_window).
  std::uint64_t window_count = 0;
  /// Deterministic seed; distinct seeds rotate the evenly-spaced BFS seed
  /// positions, yielding shifted-but-equivalent partitions.
  std::uint64_t seed = 1;
  /// Score frontier vertices by register-class affinity (off = pure edge
  /// locality; the ablation knob for the class-aware cut scoring).
  bool class_aware = true;
};

struct WindowPartition {
  static constexpr std::uint32_t kUnassigned = 0xffffffffu;

  /// Per mc-graph vertex: owning window, or kUnassigned for pinned
  /// vertices (host, kInput/kOutput/kControlTap).
  std::vector<std::uint32_t> window_of;
  /// Member vertex ids per window, ascending. Every movable vertex is in
  /// exactly one window.
  std::vector<std::vector<std::uint32_t>> windows;

  // --- cut quality (diagnostics + bench columns) ---------------------------
  std::size_t cut_edges = 0;      ///< edges spanning two distinct windows
  std::size_t cut_registers = 0;  ///< registers sitting on those edges
  /// Cut edges carrying at least one register of a class that is present on
  /// both sides — a class frontier the cut split (the quantity the
  /// class-aware scoring minimizes).
  std::size_t split_class_edges = 0;

  [[nodiscard]] std::size_t window_count() const { return windows.size(); }
};

/// Partitions `graph`'s movable vertices. Deterministic in (graph,
/// options). Never fails: degenerate graphs yield zero or one window.
WindowPartition partition_mc_graph(const McGraph& graph,
                                   const PartitionOptions& options = {});

}  // namespace mcrt
