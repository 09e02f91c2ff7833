// End-to-end windowed flow: differential against the monolithic flow
// (equivalence, period quality), determinism in the worker count,
// justification retries, legal returned labels and cancellation.
#include "window/windowed_retime.h"

#include <gtest/gtest.h>

#include <variant>

#include "../common/test_circuits.h"
#include "blif/blif.h"
#include "mcretime/lower.h"
#include "sim/equivalence.h"
#include "tech/sta.h"
#include "transform/sweep.h"
#include "verify/ternary_bmc.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

#ifndef MCRT_TESTDATA_DIR
#error "MCRT_TESTDATA_DIR must point at the repo's testdata directory"
#endif

namespace mcrt {
namespace {

Netlist with_delays(Netlist n, std::int64_t delay = 10) {
  for (std::size_t i = 0; i < n.node_count(); ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    if (n.node(id).kind == NodeKind::kLut) n.set_node_delay(id, delay);
  }
  return n;
}

WindowedRetimeOptions small_window_options() {
  WindowedRetimeOptions options;
  options.partition.max_window = 16;  // force several windows even on
  options.jobs = 2;                   // test-sized circuits
  return options;
}

TEST(WindowedRetimeTest, ChainReachesMonolithicOptimum) {
  // One window covers the whole chain: the windowed flow degenerates to
  // the monolithic solve and must find the same optimum (6 -> 2).
  const Netlist n = testing::chain_circuit(6, 2);
  WindowedRetimeOptions options;
  options.base.objective = McRetimeOptions::Objective::kMinPeriod;
  const WindowedRetimeResult result = retime_windowed(n, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.stats.period_before, 6);
  EXPECT_EQ(result.stats.period_after, 2);
  EXPECT_EQ(compute_period(result.netlist), 2);
  const auto eq = check_sequential_equivalence(n, result.netlist, {});
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(WindowedRetimeTest, DifferentialAgainstMonolithic) {
  for (const CircuitProfile& profile : random_suite(4, 23)) {
    SCOPED_TRACE(profile.name);
    const Netlist n = with_delays(generate_circuit(profile));

    McRetimeOptions mono_options;
    const McRetimeResult mono = mc_retime(n, mono_options);
    ASSERT_TRUE(mono.success) << mono.error;

    const WindowedRetimeResult windowed =
        retime_windowed(n, small_window_options());
    ASSERT_TRUE(windowed.success) << windowed.error;
    EXPECT_TRUE(windowed.netlist.validate().empty());

    // The monolithic solve is optimal, so the windowed period may trail
    // it but never beat it; both flows report the same starting period.
    EXPECT_EQ(windowed.stats.period_before, mono.stats.period_before);
    EXPECT_GE(windowed.stats.period_after, mono.stats.period_after);

    const auto eq = check_sequential_equivalence(n, windowed.netlist, {});
    EXPECT_TRUE(eq.equivalent) << eq.counterexample;

    TernaryBmcOptions bmc;
    bmc.depth = 6;
    bmc.x_refinement_ok = true;
    const auto verdict = check_ternary_bmc(n, windowed.netlist, bmc);
    EXPECT_NE(verdict.verdict, TernaryBmcResult::Verdict::kMismatch)
        << verdict.detail;
  }
}

TEST(WindowedRetimeTest, DeterministicInWorkerCount) {
  RandomCircuitOptions circuit;
  circuit.gates = 150;
  circuit.registers = 30;
  circuit.feedback_registers = 4;
  const Netlist n = with_delays(random_sequential_circuit(31, circuit));

  WindowedRetimeOptions one = small_window_options();
  one.jobs = 1;
  WindowedRetimeOptions many = small_window_options();
  many.jobs = 4;
  const WindowedRetimeResult a = retime_windowed(n, one);
  const WindowedRetimeResult b = retime_windowed(n, many);
  ASSERT_TRUE(a.success) << a.error;
  ASSERT_TRUE(b.success) << b.error;
  // Windows write disjoint label slices and acceptance checks run on the
  // coordinating thread, so the labeling is independent of the pool size.
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.stats.period_after, b.stats.period_after);
  EXPECT_EQ(a.netlist.register_count(), b.netlist.register_count());
}

TEST(WindowedRetimeTest, JustificationRetriesResolveWindowOrFallBack) {
  // Corpus circuit r03 (after sweep, delay 10 per LUT) under min-area:
  // relocation fails on the first stitched labels, so each failed attempt
  // tightens a bound and re-solves once, in the owning window or on the
  // full graph. The retry path re-solves for the minimum period whatever
  // the objective; r03's min-period labels relocate at once.
  auto read = read_blif_file(std::string(MCRT_TESTDATA_DIR) +
                             "/corpus/r03.blif");
  ASSERT_TRUE(std::holds_alternative<Netlist>(read));
  const Netlist n = with_delays(sweep(std::get<Netlist>(read), nullptr));
  for (const std::size_t max_window : {64, 16}) {
    SCOPED_TRACE("window-size " + std::to_string(max_window));
    std::vector<WindowedRetimeResult> runs;
    for (const std::size_t jobs : {1, 4}) {
      WindowedRetimeOptions options;
      options.partition.max_window = max_window;
      options.jobs = jobs;
      options.base.objective = McRetimeOptions::Objective::kMinAreaMinPeriod;
      runs.push_back(retime_windowed(n, options));
      const WindowedRetimeResult& r = runs.back();
      ASSERT_TRUE(r.success) << r.error;
      EXPECT_GE(r.stats.attempts, 2u)
          << "r03 no longer exercises the windowed retry path";
      EXPECT_EQ(r.window_stats.window_resolves +
                    r.window_stats.global_fallbacks,
                r.stats.attempts - 1);
      const auto eq = check_sequential_equivalence(n, r.netlist, {});
      EXPECT_TRUE(eq.equivalent) << eq.counterexample;
    }
    EXPECT_EQ(runs[0].labels, runs[1].labels);
    EXPECT_EQ(runs[0].stats.attempts, runs[1].stats.attempts);
    EXPECT_EQ(runs[0].window_stats.window_resolves,
              runs[1].window_stats.window_resolves);
    EXPECT_EQ(runs[0].stats.period_after, runs[1].stats.period_after);
    EXPECT_EQ(runs[0].netlist.register_count(),
              runs[1].netlist.register_count());
  }
}

TEST(WindowedRetimeTest, ReturnedLabelsAreLegal) {
  RandomCircuitOptions circuit;
  circuit.gates = 120;
  circuit.registers = 24;
  const Netlist n = with_delays(random_sequential_circuit(37, circuit));

  const WindowedRetimeOptions options = small_window_options();
  const WindowedRetimeResult result = retime_windowed(n, options);
  ASSERT_TRUE(result.success) << result.error;

  // Rebuild the lowered graph independently and check the labels on it.
  const McPrepared prepared = prepare_mc_graph(n, options.base);
  const RetimeGraph global =
      lower_to_retime_graph(prepared.graph, prepared.bounds);
  ASSERT_EQ(result.labels.size(), global.vertex_count());
  EXPECT_TRUE(global.check_legal(result.labels).empty())
      << global.check_legal(result.labels);
  EXPECT_EQ(global.period(result.labels), result.stats.period_after);
}

TEST(WindowedRetimeTest, CancellationUnwinds) {
  const Netlist n = with_delays(generate_circuit(random_suite(1, 41)[0]));
  CancelToken cancel;
  cancel.request_cancel();
  WindowedRetimeOptions options = small_window_options();
  options.base.cancel = &cancel;
  EXPECT_THROW(retime_windowed(n, options), CancelledError);
}

}  // namespace
}  // namespace mcrt
