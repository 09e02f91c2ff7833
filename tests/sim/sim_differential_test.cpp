// Simulator differential on the full register-class zoo:
//  - WordSimulator vs the scalar Simulator, lane by lane, on primary outputs
//    and on register state after every clock edge (all 64 lanes on the zoo,
//    hand and random sequential circuits; a spread of lanes on the corpus);
//  - equivalence checker's word engine vs its scalar engine: same verdict,
//    same counterexample, same compared-output count.
// The corpus leg sweeps a 64-circuit randomized suite so EN, sync and async
// set/clear (including don't-care resets) are all exercised.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "../common/test_circuits.h"
#include "sim/equivalence.h"
#include "sim/simulator.h"
#include "sim/word_simulator.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

std::vector<NetId> input_nets(const Netlist& n) {
  std::vector<NetId> nets;
  for (const NodeId id : n.inputs()) nets.push_back(n.node(id).output);
  return nets;
}

std::vector<unsigned> all_lanes() {
  std::vector<unsigned> lanes(64);
  for (unsigned lane = 0; lane < 64; ++lane) lanes[lane] = lane;
  return lanes;
}

// Drives the word engine with a mixed stimulus (defined lanes plus
// deliberate X lanes) and one scalar Simulator per checked lane with that
// lane's values; outputs and register state must agree every cycle.
void run_differential(const Netlist& n, std::uint64_t seed,
                      std::size_t cycles,
                      const std::vector<unsigned>& lanes = all_lanes()) {
  const std::vector<NetId> inputs = input_nets(n);
  std::mt19937_64 rng(seed);

  WordSimulator word(n);
  std::vector<Simulator> scalar(lanes.size(), Simulator(n));
  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      // Lanes get 0/1/X: ones, zeros and a hole where neither bit is set.
      const std::uint64_t ones = rng();
      const std::uint64_t zeros = ~ones & rng();
      const TritWord stimulus{ones, zeros};
      word.set_input(inputs[i], stimulus);
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        scalar[l].set_input(inputs[i], stimulus.lane(lanes[l]));
      }
    }
    const std::vector<TritWord> word_out = word.step();
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const unsigned lane = lanes[l];
      const std::vector<Trit> out = scalar[l].step();
      ASSERT_EQ(out.size(), word_out.size());
      for (std::size_t o = 0; o < out.size(); ++o) {
        ASSERT_EQ(out[o], word_out[o].lane(lane))
            << "lane " << lane << " cycle " << c << " output " << o;
      }
      // The next-cycle state is the real fixed-point payload.
      for (std::uint32_t r = 0; r < n.register_count(); ++r) {
        ASSERT_EQ(scalar[l].register_state(RegId{r}),
                  word.register_state(RegId{r}).lane(lane))
            << "lane " << lane << " cycle " << c << " reg " << r;
      }
    }
  }
}

// One register per class: EN, sync set, sync clear, async set, async clear,
// plain, and a don't-care sync reset.
Netlist register_class_zoo() {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId en = n.add_input("en");
  const NetId sc = n.add_input("sc");
  const NetId ac = n.add_input("ac");
  const NetId d = n.add_input("d");
  NetId chain = d;
  const auto add = [&](const char* name, auto configure) {
    Register r;
    r.d = chain;
    r.clk = clk;
    r.name = name;
    configure(r);
    chain = n.add_register(std::move(r));
  };
  add("plain", [](Register&) {});
  add("with_en", [&](Register& r) { r.en = en; });
  add("sync_set", [&](Register& r) {
    r.sync_ctrl = sc;
    r.sync_val = ResetVal::kOne;
  });
  add("sync_clear", [&](Register& r) {
    r.sync_ctrl = sc;
    r.sync_val = ResetVal::kZero;
  });
  add("sync_dontcare", [&](Register& r) {
    r.sync_ctrl = sc;
    r.sync_val = ResetVal::kDontCare;
  });
  add("async_set", [&](Register& r) {
    r.async_ctrl = ac;
    r.async_val = ResetVal::kOne;
  });
  add("async_clear_en", [&](Register& r) {
    r.async_ctrl = ac;
    r.async_val = ResetVal::kZero;
    r.en = en;
  });
  const NetId g = n.add_lut(TruthTable::xor_n(2), {chain, d}, "g");
  n.add_output("o", g);
  return n;
}

TEST(SimDifferentialTest, RegisterClassZoo) {
  run_differential(register_class_zoo(), 11, 48);
}

TEST(SimDifferentialTest, HandCircuits) {
  run_differential(testing::fig1_circuit(), 2, 32);
  run_differential(testing::fig5_circuit(), 3, 32);
  run_differential(testing::chain_circuit(6, 3), 4, 32);
}

TEST(SimDifferentialTest, RandomSequentialCircuits) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCircuitOptions opt;
    opt.use_sync = seed % 2 == 0;
    run_differential(random_sequential_circuit(seed, opt), seed * 31 + 7, 24);
  }
}

TEST(SimDifferentialTest, SixtyFourCircuitCorpus) {
  const std::vector<CircuitProfile> corpus = random_suite(64, 2024);
  ASSERT_EQ(corpus.size(), 64u);
  std::uint64_t salt = 1;
  for (const CircuitProfile& profile : corpus) {
    // A spread of lanes, both word boundaries included; all 64 would be
    // slow on the corpus.
    run_differential(generate_circuit(profile), salt++, 8,
                     {0u, 1u, 17u, 40u, 63u});
  }
}

TEST(SimDifferentialTest, EquivalenceEnginesAgreeOnEquivalentPair) {
  const Netlist a = testing::chain_circuit(5, 2);
  const Netlist b = testing::chain_circuit(5, 2);
  EquivalenceOptions word_opt;
  word_opt.engine = EquivalenceOptions::Engine::kWord;
  word_opt.runs = 6;
  word_opt.cycles = 40;
  EquivalenceOptions scalar_opt = word_opt;
  scalar_opt.engine = EquivalenceOptions::Engine::kScalar;

  const EquivalenceResult word = check_sequential_equivalence(a, b, word_opt);
  const EquivalenceResult scalar =
      check_sequential_equivalence(a, b, scalar_opt);
  EXPECT_TRUE(word.equivalent);
  EXPECT_EQ(word.equivalent, scalar.equivalent);
  EXPECT_EQ(word.counterexample, scalar.counterexample);
  EXPECT_EQ(word.compared_defined_outputs, scalar.compared_defined_outputs);
}

TEST(SimDifferentialTest, EquivalenceEnginesAgreeOnMismatch) {
  const Netlist a = testing::fig1_circuit();
  // Same interface, different gate: AND -> OR. Must be caught identically.
  Netlist b = testing::fig1_circuit();
  for (std::uint32_t v = 0; v < b.node_count(); ++v) {
    if (b.node(NodeId{v}).kind == NodeKind::kLut) {
      b.node(NodeId{v}).function = TruthTable::or_n(2);
    }
  }
  EquivalenceOptions word_opt;
  word_opt.engine = EquivalenceOptions::Engine::kWord;
  word_opt.init_registers_by_name = true;
  word_opt.runs = 4;
  word_opt.cycles = 24;
  EquivalenceOptions scalar_opt = word_opt;
  scalar_opt.engine = EquivalenceOptions::Engine::kScalar;

  const EquivalenceResult word = check_sequential_equivalence(a, b, word_opt);
  const EquivalenceResult scalar =
      check_sequential_equivalence(a, b, scalar_opt);
  EXPECT_FALSE(word.equivalent);
  EXPECT_EQ(word.equivalent, scalar.equivalent);
  EXPECT_EQ(word.counterexample, scalar.counterexample);
  EXPECT_EQ(word.compared_defined_outputs, scalar.compared_defined_outputs);
}

TEST(SimDifferentialTest, EquivalenceEnginesAgreeOnWorkloads) {
  for (const CircuitProfile& profile : random_suite(4, 321)) {
    const Netlist n = generate_circuit(profile);
    EquivalenceOptions word_opt;
    word_opt.engine = EquivalenceOptions::Engine::kWord;
    word_opt.runs = 3;
    word_opt.cycles = 16;
    EquivalenceOptions scalar_opt = word_opt;
    scalar_opt.engine = EquivalenceOptions::Engine::kScalar;
    const EquivalenceResult word =
        check_sequential_equivalence(n, n, word_opt);
    const EquivalenceResult scalar =
        check_sequential_equivalence(n, n, scalar_opt);
    EXPECT_TRUE(word.equivalent) << profile.name;
    EXPECT_EQ(word.compared_defined_outputs, scalar.compared_defined_outputs)
        << profile.name;
    EXPECT_EQ(word.counterexample, scalar.counterexample) << profile.name;
  }
}

}  // namespace
}  // namespace mcrt
