// FlowMap vs exhaustive k-cut enumeration (verify/cut_depth.h). FlowMap
// finds each label with one max-flow over the node's cone; the reference
// enumerates every k-feasible cut and takes the minimum of (deepest leaf
// label + 1), which is the definition those labels optimise. The mapped
// depth must match on every circuit, for both LUT sizes and with area
// recovery on or off (recovery may change the cover, never the depth).
#include "tech/flowmap.h"

#include <gtest/gtest.h>

#include "../common/test_circuits.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "verify/cut_depth.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

void expect_optimal_depth(const Netlist& subject, std::uint32_t k,
                          bool area_recovery) {
  FlowMapOptions options;
  options.k = k;
  options.area_recovery = area_recovery;
  const FlowMapResult mapped = flowmap_map(subject, options);
  const auto reference = exhaustive_cut_depth(subject, k);
  ASSERT_TRUE(reference.has_value()) << "k=" << k << ": cut cap exceeded";
  EXPECT_EQ(mapped.depth, *reference)
      << "k=" << k << " area_recovery=" << area_recovery;
}

void expect_optimal_depth_all_settings(const Netlist& subject) {
  for (const std::uint32_t k : {4u, 5u}) {
    for (const bool recovery : {false, true}) {
      expect_optimal_depth(subject, k, recovery);
    }
  }
}

TEST(FlowMapDifferentialTest, HandCircuits) {
  expect_optimal_depth_all_settings(
      decompose_to_binary(testing::fig1_circuit()));
  expect_optimal_depth_all_settings(
      decompose_to_binary(testing::chain_circuit(9, 3)));
  const Netlist fig5 = decompose_to_binary(testing::fig5_circuit());
  expect_optimal_depth_all_settings(fig5);
  for (const bool recovery : {false, true}) {
    expect_optimal_depth(fig5, 3, recovery);
  }
}

TEST(FlowMapDifferentialTest, RandomCircuitsBothKAndRecovery) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    expect_optimal_depth_all_settings(
        decompose_to_binary(random_sequential_circuit(seed)));
  }
}

TEST(FlowMapDifferentialTest, WorkloadCircuits) {
  for (const CircuitProfile& profile : random_suite(6, 17)) {
    SCOPED_TRACE(profile.name);
    expect_optimal_depth_all_settings(
        decompose_to_binary(generate_circuit(profile)));
  }
}

TEST(FlowMapDifferentialTest, CompactEngineStillBehaviorallyCorrect) {
  // Depth optimality says nothing about function: the mapped netlist must
  // also be sequentially equivalent to its input.
  const Netlist subject =
      decompose_to_binary(random_sequential_circuit(77));
  FlowMapOptions opt;
  opt.k = 4;
  const FlowMapResult mapped = flowmap_map(subject, opt);
  EquivalenceOptions eq;
  eq.init_registers_by_name = true;
  eq.runs = 4;
  eq.cycles = 32;
  const EquivalenceResult verdict =
      check_sequential_equivalence(subject, mapped.mapped, eq);
  EXPECT_TRUE(verdict.equivalent) << verdict.counterexample;
}

}  // namespace
}  // namespace mcrt
