// The W/D reference for min-period tests: Leiserson-Saxe's candidate
// periods and the smallest one the W/D + SPFA check accepts. It shares
// nothing with minperiod_retime's gcd-multiple search beyond the graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "retime/minperiod.h"
#include "retime/period_constraints.h"

namespace mcrt::testing {

/// Every distinct path delay D(u, v) from a non-host source (single
/// vertices included), sorted ascending.
inline std::vector<std::int64_t> wd_path_delays(const RetimeGraph& graph) {
  std::vector<std::int64_t> all;
  for (std::size_t u = 1; u < graph.vertex_count(); ++u) {
    const WdLabels labels =
        compute_wd_from_source(graph, VertexId{static_cast<std::uint32_t>(u)});
    for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
      if (labels.reached[v]) all.push_back(labels.delay[v]);
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

/// The smallest path delay bounded_feasible() accepts, scanning upward;
/// std::nullopt when it accepts none (no legal labeling meets the bounds).
inline std::optional<std::int64_t> wd_min_period(const RetimeGraph& graph) {
  for (const std::int64_t phi : wd_path_delays(graph)) {
    if (bounded_feasible(graph, phi)) return phi;
  }
  return std::nullopt;
}

}  // namespace mcrt::testing
