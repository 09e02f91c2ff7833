#include "mcretime/relocate.h"

#include <gtest/gtest.h>

#include "../common/test_circuits.h"
#include "graph/difference_constraints.h"
#include "mcretime/lower.h"
#include "mcretime/maximal_retiming.h"
#include "mcretime/mc_retime.h"
#include "mcretime/rebuild.h"
#include "retime/minperiod.h"
#include "sim/equivalence.h"
#include "transform/sweep.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

VertexId gate_by_name(const McGraph& g, const Netlist& n, const char* name) {
  for (std::size_t v = 1; v < g.vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    if (g.kind(vid) == McVertexKind::kGate &&
        n.node(g.origin_node(vid)).name == name) {
      return vid;
    }
  }
  ADD_FAILURE() << "gate not found: " << name;
  return {};
}

/// Labels that conflict like the paper's Fig. 5: v2, v3 and v4 move back.
std::vector<std::int64_t> fig5_labels(const McGraph& g, const Netlist& n) {
  std::vector<std::int64_t> r(g.vertex_count(), 0);
  for (const char* name : {"v2", "v3", "v4"}) {
    r[gate_by_name(g, n, name).index()] = 1;
  }
  return r;
}

/// The greatest labeling <= 0 with period <= phi, normalized to r(host) =
/// 0: the W/D system solved directly. It moves registers backward as far
/// as phi allows, which relocation often cannot justify (min-period
/// retiming itself returns the least labeling).
std::vector<std::int64_t> most_backward_labels(const RetimeGraph& graph,
                                               std::int64_t phi) {
  std::vector<DifferenceConstraint> constraints;
  generate_circuit_constraints(graph, constraints);
  generate_period_constraints_unpruned(graph, phi, constraints);
  auto r = solve_difference_constraints(graph.vertex_count(), constraints);
  EXPECT_TRUE(r.has_value());
  if (!r) return std::vector<std::int64_t>(graph.vertex_count(), 0);
  const std::int64_t base = (*r)[graph.host().index()];
  for (auto& label : *r) label -= base;
  return std::move(*r);
}

/// Fig. 5 with jointly unsatisfiable reset values: f3 = 0 behind NAND
/// forces the shared fanout to 1, while f4 = 1 behind INV forces it to 0.
Netlist unresolvable_circuit() {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId srst = n.add_input("srst");
  const NetId i0 = n.add_input("i0");
  const NetId i1 = n.add_input("i1");
  const NetId i2 = n.add_input("i2");
  const NetId v2 = n.add_lut(TruthTable::and_n(2), {i0, i1}, "v2");
  const NetId v3 = n.add_lut(TruthTable::nand_n(2), {v2, i2}, "v3");
  const NetId v4 = n.add_lut(TruthTable::inverter(), {v2}, "v4");
  Register f3;
  f3.d = v3;
  f3.clk = clk;
  f3.sync_ctrl = srst;
  f3.sync_val = ResetVal::kZero;
  const NetId q3 = n.add_register(std::move(f3));
  Register f4;
  f4.d = v4;
  f4.clk = clk;
  f4.sync_ctrl = srst;
  f4.sync_val = ResetVal::kOne;
  const NetId q4 = n.add_register(std::move(f4));
  n.add_output("out0", q3);
  n.add_output("out1", q4);
  return n;
}

TEST(RelocateTest, BackwardChainMove) {
  // Move both end-of-chain registers backward across every gate.
  const Netlist n = testing::chain_circuit(3, 2);
  McGraph g = build_mc_graph(n);
  std::vector<std::int64_t> r(g.vertex_count(), 0);
  for (const char* name : {"g0", "g1", "g2"}) {
    r[gate_by_name(g, n, name).index()] = 2;
  }
  const auto result = relocate_registers(g, n, r);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.stats.backward_steps, 6u);
  EXPECT_EQ(result.stats.forward_steps, 0u);
  // Registers now sit on the PI -> g0 edge.
  const VertexId g0 = gate_by_name(g, n, "g0");
  const auto fanin = g.digraph().in_edges(g0);
  ASSERT_EQ(fanin.size(), 1u);
  EXPECT_EQ(g.regs(fanin[0]).size(), 2u);
}

TEST(RelocateTest, ForwardMoveImpliesValues) {
  // Register with async clear feeding an inverter: after a forward move the
  // new register's async value must be 1 (implied through the inverter).
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId rst = n.add_input("rst");
  const NetId a = n.add_input("a");
  Register ff;
  ff.d = a;
  ff.clk = clk;
  ff.async_ctrl = rst;
  ff.async_val = ResetVal::kZero;
  const NetId q = n.add_register(std::move(ff));
  const NetId inv = n.add_lut(TruthTable::inverter(), {q}, "inv");
  n.add_output("o", inv);

  McGraph g = build_mc_graph(n);
  std::vector<std::int64_t> r(g.vertex_count(), 0);
  r[gate_by_name(g, n, "inv").index()] = -1;
  const auto result = relocate_registers(g, n, r);
  ASSERT_TRUE(result.success) << result.failure_reason;
  const VertexId inv_v = gate_by_name(g, n, "inv");
  const auto fanout = g.digraph().out_edges(inv_v);
  ASSERT_EQ(fanout.size(), 1u);
  ASSERT_EQ(g.regs(fanout[0]).size(), 1u);
  EXPECT_EQ(g.regs(fanout[0])[0].async_val, ResetVal::kOne);
}

TEST(RelocateTest, BackwardMoveJustifiesWithDontCares) {
  // Register with async value 0 behind an AND: one fanin register gets 0,
  // the other stays '-'.
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId rst = n.add_input("rst");
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId and_net = n.add_lut(TruthTable::and_n(2), {a, b}, "and");
  Register ff;
  ff.d = and_net;
  ff.clk = clk;
  ff.async_ctrl = rst;
  ff.async_val = ResetVal::kZero;
  const NetId q = n.add_register(std::move(ff));
  n.add_output("o", q);

  McGraph g = build_mc_graph(n);
  std::vector<std::int64_t> r(g.vertex_count(), 0);
  r[gate_by_name(g, n, "and").index()] = 1;
  const auto result = relocate_registers(g, n, r);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.stats.local_justifications, 1u);
  EXPECT_EQ(result.stats.global_justifications, 0u);
  const VertexId and_v = gate_by_name(g, n, "and");
  std::size_t zeros = 0;
  std::size_t dontcares = 0;
  for (const EdgeId e : g.digraph().in_edges(and_v)) {
    ASSERT_EQ(g.regs(e).size(), 1u);
    if (g.regs(e)[0].async_val == ResetVal::kZero) ++zeros;
    if (g.regs(e)[0].async_val == ResetVal::kDontCare) ++dontcares;
  }
  EXPECT_EQ(zeros, 1u);
  EXPECT_EQ(dontcares, 1u);
}

TEST(RelocateTest, Fig5GlobalJustification) {
  // The paper's Fig. 5 scenario: local justification handles v3 and v4,
  // the backward move across v2 conflicts, and a global justification
  // across v2, v3, v4 resolves it.
  const Netlist n = testing::fig5_circuit();
  McGraph g = build_mc_graph(n);
  const auto result = relocate_registers(g, n, fig5_labels(g, n));
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_GE(result.stats.global_justifications, 1u);

  // The revised values must be consistent: rebuild and compare behaviour.
  const Netlist rebuilt = rebuild_netlist(g, n);
  EXPECT_TRUE(rebuilt.validate().empty());
  EquivalenceOptions opt;
  opt.reset_inputs = {"srst"};
  opt.reset_prefix = 2;
  const auto eq = check_sequential_equivalence(n, rebuilt, opt);
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(RelocateTest, UnresolvableConflictReportsVertex) {
  // Like Fig. 5 but with reset values whose constraints are jointly
  // unsatisfiable. Even global justification must fail, and the relocation
  // reports the conflicting vertex so the driver can bound it away.
  const Netlist n = unresolvable_circuit();
  McGraph g = build_mc_graph(n);
  const VertexId v2_v = gate_by_name(g, n, "v2");
  const std::vector<std::int64_t> r = fig5_labels(g, n);
  const auto result = relocate_registers(g, n, r);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.failed_backward);
  EXPECT_EQ(result.failed_vertex, v2_v);
  EXPECT_EQ(result.achieved, 0);
  EXPECT_GE(result.stats.global_justifications, 1u);
}

TEST(RelocateTest, ZeroTargetIsNoOp) {
  const Netlist n = testing::fig1_circuit();
  McGraph g = build_mc_graph(n);
  const std::size_t before = g.total_edge_registers();
  const std::vector<std::int64_t> r(g.vertex_count(), 0);
  const auto result = relocate_registers(g, n, r);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.backward_steps, 0u);
  EXPECT_EQ(result.stats.forward_steps, 0u);
  EXPECT_EQ(g.total_edge_registers(), before);
}

// What the transparency runs exercised.
struct Exercised {
  std::size_t local = 0;
  std::size_t global = 0;
  std::size_t failures = 0;
};

// Relocates `labels` on a copy of `graph` without a memo (every
// justification solved afresh), with a fresh memo, and twice with `shared`,
// a memo that already holds the answers of every earlier case: the runs
// must agree on every register and on the result, and the second shared
// run must answer every justification from the memo.
void expect_memo_transparent(const McGraph& graph, const Netlist& netlist,
                             const std::vector<std::int64_t>& labels,
                             std::size_t budget, JustificationMemo& shared,
                             Exercised& total) {
  McGraph plain = graph;
  const RelocateResult expected =
      relocate_registers(plain, netlist, labels, budget);
  JustificationMemo memo;
  McGraph fresh = graph;
  const RelocateResult first =
      relocate_registers(fresh, netlist, labels, budget, &memo);
  EXPECT_EQ(memo.reuses(), 0u) << "no earlier relocation to reuse";
  McGraph priming = graph;
  const RelocateResult primes =
      relocate_registers(priming, netlist, labels, budget, &shared);
  const std::size_t solved = shared.size();
  const std::size_t reused = shared.reuses();
  McGraph primed = graph;
  const RelocateResult again =
      relocate_registers(primed, netlist, labels, budget, &shared);
  EXPECT_EQ(shared.size(), solved) << "the primed run solved a new problem";
  const bool justified = expected.stats.local_justifications +
                             expected.stats.global_justifications >
                         0;
  EXPECT_EQ(shared.reuses() > reused, justified);

  for (const auto& [name, g, result] :
       {std::tuple{"fresh memo", &fresh, &first},
        std::tuple{"shared memo", &priming, &primes},
        std::tuple{"primed memo", &primed, &again}}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(result->success, expected.success);
    EXPECT_EQ(result->failed_vertex, expected.failed_vertex);
    EXPECT_EQ(result->achieved, expected.achieved);
    EXPECT_EQ(result->failed_backward, expected.failed_backward);
    EXPECT_EQ(result->failure_reason, expected.failure_reason);
    EXPECT_EQ(result->stats.backward_steps, expected.stats.backward_steps);
    EXPECT_EQ(result->stats.forward_steps, expected.stats.forward_steps);
    EXPECT_EQ(result->stats.local_justifications,
              expected.stats.local_justifications);
    EXPECT_EQ(result->stats.global_justifications,
              expected.stats.global_justifications);
    for (std::size_t e = 0; e < plain.digraph().edge_count(); ++e) {
      const EdgeId id{static_cast<std::uint32_t>(e)};
      const auto& want = plain.regs(id);
      const auto& got = g->regs(id);
      ASSERT_EQ(got.size(), want.size()) << "edge " << e;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].uid, want[i].uid) << "edge " << e;
        EXPECT_EQ(got[i].cls, want[i].cls) << "edge " << e;
        EXPECT_EQ(got[i].sync_val, want[i].sync_val) << "edge " << e;
        EXPECT_EQ(got[i].async_val, want[i].async_val) << "edge " << e;
      }
    }
  }
  total.local += expected.stats.local_justifications;
  total.global += expected.stats.global_justifications;
  total.failures += expected.success ? 0 : 1;
}

TEST(RelocateTest, JustificationMemoIsTransparent) {
  JustificationMemo shared;
  Exercised total;
  for (const Netlist& n : {testing::fig5_circuit(), unresolvable_circuit()}) {
    const McGraph g = build_mc_graph(n);
    expect_memo_transparent(g, n, fig5_labels(g, n), 96, shared, total);
  }
  EXPECT_EQ(total.failures, 1u);  // the unresolvable circuit

  // Random multi-class circuits with async resets, at the greatest
  // labeling <= 0 that meets their bounded minimum period: relocations
  // that succeed, justify globally and fail, with and without global
  // justification.
  RandomCircuitOptions opt;
  opt.gates = 40;
  opt.registers = 14;
  opt.control_signatures = 4;
  opt.use_async = true;
  opt.use_sync = true;
  McRetimeOptions options;
  options.objective = McRetimeOptions::Objective::kMinPeriod;
  total = {};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Netlist n = sweep(random_sequential_circuit(seed, opt), nullptr);
    set_default_lut_delays(n, 10);
    const McPrepared prepared = prepare_mc_graph(n, options);
    const RetimeGraph graph =
        lower_to_retime_graph(prepared.graph, prepared.bounds);
    const RetimeSolution solution = minperiod_retime(graph);
    ASSERT_TRUE(solution.feasible);
    const std::vector<std::int64_t> labels =
        most_backward_labels(graph, solution.period);
    for (const std::size_t budget : {std::size_t{96}, std::size_t{0}}) {
      expect_memo_transparent(prepared.graph, n, labels, budget, shared,
                              total);
    }
  }
  EXPECT_GT(total.local, 0u);
  EXPECT_GT(total.global, 0u);
  EXPECT_GT(total.failures, 0u);
}

}  // namespace
}  // namespace mcrt
