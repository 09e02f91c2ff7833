#include "mcretime/maximal_retiming.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "../common/test_circuits.h"
#include "transform/sweep.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

VertexId find_gate(const McGraph& g, const Netlist& n, const char* name) {
  for (std::size_t v = 1; v < g.vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    if (g.kind(vid) == McVertexKind::kGate &&
        n.node(g.origin_node(vid)).name == name) {
      return vid;
    }
  }
  ADD_FAILURE() << "gate " << name << " not found";
  return {};
}

/// A single-register ring with no external observation, next to unrelated
/// observable logic so the netlist is not empty.
Netlist isolated_ring_circuit() {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId d = n.add_net("loop_d");
  Register ff;
  ff.d = d;
  ff.clk = clk;
  const NetId q = n.add_register(std::move(ff));
  n.add_lut_driving(d, TruthTable::inverter(), {q});
  n.add_output("o", n.add_input("a"));
  return n;
}

TEST(MaximalRetimingTest, ChainBounds) {
  // in -> g0 g1 g2 -> FF FF -> out: both registers can move backward across
  // g2, g1, g0 -> r_max(g0) = r_max(g1) = r_max(g2) = 2; nothing can move
  // forward (registers would cross the PO).
  const Netlist n = testing::chain_circuit(3, 2);
  const McGraph g = build_mc_graph(n);
  const auto result = compute_mc_bounds(g);
  for (const char* name : {"g0", "g1", "g2"}) {
    const VertexId v = find_gate(g, n, name);
    EXPECT_EQ(result.bounds.r_max[v.index()], 2) << name;
    EXPECT_EQ(result.bounds.r_min[v.index()], 0) << name;
  }
  EXPECT_EQ(result.bounds.possible_steps, 6u);
  EXPECT_FALSE(result.bounds.hit_cap);
}

TEST(MaximalRetimingTest, Fig1ForwardBound) {
  const Netlist n = testing::fig1_circuit();
  const McGraph g = build_mc_graph(n);
  const auto result = compute_mc_bounds(g);
  const VertexId gate = find_gate(g, n, "g");
  EXPECT_EQ(result.bounds.r_min[gate.index()], -1);
  EXPECT_EQ(result.bounds.r_max[gate.index()], 0);
}

TEST(MaximalRetimingTest, IncompatibleClassesBlockMoves) {
  // Like fig1 but with two different enables: no moves possible at all.
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId en1 = n.add_input("en1");
  const NetId en2 = n.add_input("en2");
  Register r1;
  r1.d = n.add_input("a");
  r1.clk = clk;
  r1.en = en1;
  const NetId q1 = n.add_register(std::move(r1));
  Register r2;
  r2.d = n.add_input("b");
  r2.clk = clk;
  r2.en = en2;
  const NetId q2 = n.add_register(std::move(r2));
  n.add_output("o", n.add_lut(TruthTable::and_n(2), {q1, q2}, "g"));
  const McGraph g = build_mc_graph(n);
  const auto result = compute_mc_bounds(g);
  const VertexId gate = find_gate(g, n, "g");
  EXPECT_EQ(result.bounds.r_min[gate.index()], 0);
  EXPECT_EQ(result.bounds.r_max[gate.index()], 0);
  EXPECT_EQ(result.bounds.possible_steps, 0u);
}

TEST(MaximalRetimingTest, ObservedRingHasFiniteBounds) {
  // A ring observed by a primary output cannot rotate its register past the
  // observation point: bounds stay finite.
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId d = n.add_net("loop_d");
  Register ff;
  ff.d = d;
  ff.clk = clk;
  const NetId q = n.add_register(std::move(ff));
  const NetId g1 = n.add_lut(TruthTable::xor_n(2), {q, a}, "ring1");
  const NetId g2 = n.add_lut(TruthTable::inverter(), {g1}, "ring2");
  n.add_lut_driving(d, TruthTable::buffer(), {g2});
  n.add_output("o", g1);
  const McGraph g = build_mc_graph(n);
  const auto result = compute_mc_bounds(g);
  EXPECT_FALSE(result.bounds.hit_cap);
  const VertexId ring1 = find_gate(g, n, "ring1");
  EXPECT_LT(result.bounds.r_max[ring1.index()], McBounds::kUnbounded);
}

TEST(MaximalRetimingTest, IsolatedRingIsUnbounded) {
  // A register ring with no external observation rotates forever; the cap
  // kicks in and the vertex is marked unbounded (no class constraint).
  const McGraph g = build_mc_graph(isolated_ring_circuit());
  const auto result = compute_mc_bounds(g);
  EXPECT_TRUE(result.bounds.hit_cap);
  bool found_unbounded = false;
  for (std::size_t v = 1; v < g.vertex_count(); ++v) {
    if (result.bounds.r_max[v] >= McBounds::kUnbounded) found_unbounded = true;
  }
  EXPECT_TRUE(found_unbounded);
}

TEST(MaximalRetimingTest, BackwardGraphIsMaximallyRetimed) {
  const Netlist n = testing::chain_circuit(3, 2);
  const McGraph g = build_mc_graph(n);
  const auto result = compute_mc_bounds(g);
  // In the backward graph no more backward steps are possible anywhere.
  for (std::size_t v = 1; v < result.backward_graph.vertex_count(); ++v) {
    EXPECT_FALSE(result.backward_graph.backward_step_class(
        VertexId{static_cast<std::uint32_t>(v)}));
  }
  // Register count is preserved for single-fanout chains.
  EXPECT_EQ(result.backward_graph.total_edge_registers(),
            g.total_edge_registers());
}

TEST(MaximalRetimingTest, BoundsAdmitZero) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Netlist n = random_sequential_circuit(seed);
    const McGraph g = build_mc_graph(n);
    const auto result = compute_mc_bounds(g);
    for (std::size_t v = 0; v < g.vertex_count(); ++v) {
      EXPECT_GE(result.bounds.r_max[v], 0) << "seed " << seed;
      EXPECT_LE(result.bounds.r_min[v], 0) << "seed " << seed;
    }
  }
}

TEST(MaximalRetimingTest, InputsOutputsNeverMove) {
  const Netlist n = testing::chain_circuit(2, 2);
  const McGraph g = build_mc_graph(n);
  const auto result = compute_mc_bounds(g);
  for (std::size_t v = 1; v < g.vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    if (g.kind(vid) != McVertexKind::kGate) {
      EXPECT_EQ(result.bounds.r_max[v], 0);
      EXPECT_EQ(result.bounds.r_min[v], 0);
    }
  }
}

// --- reference stepper -------------------------------------------------------
//
// The §4.1 stepper as first written: McGraph::apply_*_step on a copy of the
// graph, one vertex at a time in worklist order. compute_mc_bounds must
// reproduce it exactly -- bounds, step counts and the backward graph's
// registers, uids included.

std::vector<std::int64_t> reference_phase(McGraph& graph, bool backward,
                                          std::int64_t cap,
                                          std::vector<bool>& capped,
                                          bool& hit_cap) {
  const std::size_t n = graph.vertex_count();
  const Digraph& g = graph.digraph();
  std::vector<std::int64_t> count(n, 0);
  capped.assign(n, false);
  std::deque<std::uint32_t> queue;
  std::vector<bool> in_queue(n, false);
  for (std::size_t v = 1; v < n; ++v) {
    queue.push_back(static_cast<std::uint32_t>(v));
    in_queue[v] = true;
  }
  auto step_class = [&](VertexId v) {
    return backward ? graph.backward_step_class(v)
                    : graph.forward_step_class(v);
  };
  while (!queue.empty()) {
    const VertexId v{queue.front()};
    queue.pop_front();
    in_queue[v.index()] = false;
    if (capped[v.index()]) continue;
    bool moved = false;
    while (count[v.index()] < cap && step_class(v)) {
      if (backward) {
        graph.apply_backward_step(v);
      } else {
        graph.apply_forward_step(v);
      }
      ++count[v.index()];
      moved = true;
    }
    if (count[v.index()] >= cap && step_class(v)) {
      capped[v.index()] = true;
      hit_cap = true;
    }
    if (!moved) continue;
    const auto next = backward ? g.in_edges(v) : g.out_edges(v);
    for (const EdgeId e : next) {
      const VertexId u = backward ? g.from(e) : g.to(e);
      if (!in_queue[u.index()]) {
        in_queue[u.index()] = true;
        queue.push_back(u.value());
      }
    }
  }
  return count;
}

MaximalRetimingResult reference_bounds(const McGraph& graph) {
  MaximalRetimingResult result;
  const std::size_t n = graph.vertex_count();
  const std::int64_t cap =
      static_cast<std::int64_t>(graph.total_edge_registers() + n) + 2;
  McBounds& bounds = result.bounds;
  bounds.r_max.assign(n, 0);
  bounds.r_min.assign(n, 0);
  std::vector<bool> capped;
  result.backward_graph = graph;
  auto count = reference_phase(result.backward_graph, /*backward=*/true, cap,
                               capped, bounds.hit_cap);
  for (std::size_t v = 0; v < n; ++v) {
    bounds.r_max[v] = capped[v] ? McBounds::kUnbounded : count[v];
    bounds.possible_steps += static_cast<std::size_t>(count[v]);
  }
  McGraph forward_graph = graph;
  count = reference_phase(forward_graph, /*backward=*/false, cap, capped,
                          bounds.hit_cap);
  for (std::size_t v = 0; v < n; ++v) {
    bounds.r_min[v] = capped[v] ? -McBounds::kUnbounded : -count[v];
    bounds.possible_steps += static_cast<std::size_t>(count[v]);
  }
  return result;
}

void expect_same_as_reference(const McGraph& g, const std::string& label) {
  const MaximalRetimingResult got = compute_mc_bounds(g);
  const MaximalRetimingResult want = reference_bounds(g);
  EXPECT_EQ(got.bounds.r_max, want.bounds.r_max) << label;
  EXPECT_EQ(got.bounds.r_min, want.bounds.r_min) << label;
  EXPECT_EQ(got.bounds.possible_steps, want.bounds.possible_steps) << label;
  EXPECT_EQ(got.bounds.hit_cap, want.bounds.hit_cap) << label;
  ASSERT_EQ(got.backward_graph.vertex_count(), g.vertex_count()) << label;
  const std::size_t edges = g.digraph().edge_count();
  ASSERT_EQ(got.backward_graph.digraph().edge_count(), edges) << label;
  std::size_t mismatched_edges = 0;
  for (std::size_t e = 0; e < edges; ++e) {
    const EdgeId id{static_cast<std::uint32_t>(e)};
    const auto& a = got.backward_graph.regs(id);
    const auto& b = want.backward_graph.regs(id);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].cls == b[i].cls && a[i].uid == b[i].uid &&
             a[i].sync_val == b[i].sync_val &&
             a[i].async_val == b[i].async_val;
    }
    if (!same) ++mismatched_edges;
  }
  EXPECT_EQ(mismatched_edges, 0u) << label;
}

TEST(MaximalRetimingTest, MatchesReferenceOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const McGraph g = build_mc_graph(random_sequential_circuit(seed));
    expect_same_as_reference(g, "seed " + std::to_string(seed));
  }
}

TEST(MaximalRetimingTest, MatchesReferenceOnScaledDesignWithRotatingRing) {
  const Netlist n = sweep(generate_circuit(scaled_profile(4000, 4000)));
  const McGraph g = build_mc_graph(n);
  EXPECT_GT(g.classes().class_count(), 1u);
  // The design holds a register ring that rotates until the cap.
  EXPECT_TRUE(compute_mc_bounds(g).bounds.hit_cap);
  expect_same_as_reference(g, "scaled 4000");
}

// --- single-class oracle ------------------------------------------------------
//
// With one register class every step is valid as soon as the consumed
// edges carry a register, so maximal retiming is basic retiming: r_max(v)
// is the fewest registers on any path from v to a vertex that cannot move,
// and -r_min(v) the fewest on any path from such a vertex to v.

constexpr std::int64_t kNoPath = std::numeric_limits<std::int64_t>::max();

/// Multi-source Dijkstra over edge register counts from every vertex that
/// cannot move; `reverse` walks edges sink to source.
std::vector<std::int64_t> distances_from_immovable(const McGraph& g,
                                                   bool reverse) {
  const Digraph& d = g.digraph();
  const std::size_t n = g.vertex_count();
  std::vector<std::int64_t> dist(n, kNoPath);
  using Item = std::pair<std::int64_t, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (std::size_t v = 0; v < n; ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    const McVertexKind k = g.kind(vid);
    const bool movable =
        (k == McVertexKind::kGate || k == McVertexKind::kSeparator) &&
        d.in_degree(vid) > 0 && d.out_degree(vid) > 0;
    if (!movable) {
      dist[v] = 0;
      heap.emplace(0, vid.value());
    }
  }
  while (!heap.empty()) {
    const auto [du, u] = heap.top();
    heap.pop();
    if (du != dist[u]) continue;
    const VertexId uid{u};
    for (const EdgeId e : reverse ? d.in_edges(uid) : d.out_edges(uid)) {
      const VertexId w = reverse ? d.from(e) : d.to(e);
      const std::int64_t dw =
          du + static_cast<std::int64_t>(g.regs(e).size());
      if (dw < dist[w.index()]) {
        dist[w.index()] = dw;
        heap.emplace(dw, w.value());
      }
    }
  }
  return dist;
}

/// Checks one design against the oracle; returns false (checking nothing)
/// when it has more than one register class.
bool check_single_class_oracle(const McGraph& g, const std::string& label) {
  if (g.classes().class_count() != 1) return false;
  const McBounds bounds = compute_mc_bounds(g).bounds;
  const auto to_sink = distances_from_immovable(g, /*reverse=*/true);
  const auto from_source = distances_from_immovable(g, /*reverse=*/false);
  const auto registers = static_cast<std::int64_t>(g.total_edge_registers());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const std::string at = label + " vertex " + std::to_string(v);
    if (to_sink[v] == kNoPath) {
      EXPECT_TRUE(bounds.r_max[v] == McBounds::kUnbounded ||
                  bounds.r_max[v] > registers)
          << at << " r_max " << bounds.r_max[v];
    } else {
      EXPECT_EQ(bounds.r_max[v], to_sink[v]) << at;
    }
    if (from_source[v] == kNoPath) {
      EXPECT_TRUE(bounds.r_min[v] == -McBounds::kUnbounded ||
                  -bounds.r_min[v] > registers)
          << at << " r_min " << bounds.r_min[v];
    } else {
      EXPECT_EQ(bounds.r_min[v], -from_source[v]) << at;
    }
  }
  return true;
}

TEST(MaximalRetimingTest, SingleClassBoundsAreRegisterDistances) {
  RandomCircuitOptions options;
  options.use_en = false;
  options.use_async = false;
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const McGraph g = build_mc_graph(random_sequential_circuit(seed, options));
    if (check_single_class_oracle(g, "seed " + std::to_string(seed))) {
      ++checked;
    }
  }
  EXPECT_GE(checked, 16u);
}

TEST(MaximalRetimingTest, SingleClassOracleOnIsolatedRing) {
  // The ring has no path to a vertex that cannot move.
  EXPECT_TRUE(
      check_single_class_oracle(build_mc_graph(isolated_ring_circuit()),
                                "ring"));
}

}  // namespace
}  // namespace mcrt
