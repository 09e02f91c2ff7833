// Direct tests of the 64-lane WordSimulator and its TritWord primitives.
// Whole-circuit agreement with the scalar Simulator lives in
// sim_differential_test.cpp; here each mechanism is pinned on its own:
// lane access, the ternary ite, single-LUT evaluation with X pins, register
// enables and injected register state.
#include "sim/word_simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../common/test_circuits.h"
#include "base/rng.h"
#include "sim/simulator.h"

namespace mcrt {
namespace {

TEST(TritWordTest, LaneAccess) {
  TritWord w;
  w.set_lane(0, Trit::kOne);
  w.set_lane(1, Trit::kZero);
  w.set_lane(2, Trit::kUnknown);
  EXPECT_EQ(w.lane(0), Trit::kOne);
  EXPECT_EQ(w.lane(1), Trit::kZero);
  EXPECT_EQ(w.lane(2), Trit::kUnknown);
  w.set_lane(0, Trit::kZero);
  EXPECT_EQ(w.lane(0), Trit::kZero);
  EXPECT_EQ((w.ones & w.zeros), 0u);
}

TEST(TritWordTest, EvalMatchesScalarTernary) {
  // One LUT per netlist, arity 1 to 5, driven with 64 random 0/1/X lanes:
  // every lane of the word engine must equal a scalar Simulator run and
  // the truth table's own ternary evaluation.
  Rng rng(3);
  const TruthTable tables[] = {
      TruthTable::inverter(),    TruthTable::xor_n(2),
      TruthTable::and_n(3),      TruthTable::mux21(),
      TruthTable::nor_n(4),      TruthTable(4, rng.next()),
      TruthTable(5, rng.next()), TruthTable(5, rng.next()),
  };
  for (const TruthTable& f : tables) {
    Netlist n;
    std::vector<NetId> pins;
    for (std::uint32_t i = 0; i < f.input_count(); ++i) {
      pins.push_back(n.add_input("i" + std::to_string(i)));
    }
    n.add_output("y", n.add_lut(f, pins));

    std::vector<TritWord> words(pins.size());
    for (TritWord& word : words) {
      for (unsigned lane = 0; lane < 64; ++lane) {
        word.set_lane(lane, static_cast<Trit>(rng.below(3)));
      }
    }
    WordSimulator word_sim(n);
    for (std::size_t i = 0; i < pins.size(); ++i) {
      word_sim.set_input(pins[i], words[i]);
    }
    word_sim.settle();
    const TritWord out = word_sim.output_values()[0];

    Simulator scalar(n);
    for (unsigned lane = 0; lane < 64; ++lane) {
      Trit lane_pins[TruthTable::kMaxInputs];
      for (std::size_t i = 0; i < pins.size(); ++i) {
        lane_pins[i] = words[i].lane(lane);
        scalar.set_input(pins[i], lane_pins[i]);
      }
      scalar.settle();
      EXPECT_EQ(out.lane(lane), scalar.output_values()[0])
          << f.to_string() << " lane " << lane;
      EXPECT_EQ(out.lane(lane), f.eval_ternary(lane_pins))
          << f.to_string() << " lane " << lane;
    }
  }
}

TEST(TritWordTest, MergeAndIteMatchScalar) {
  // An X control selects the merge of both arms: defined only where they
  // agree (trit_merge).
  const Trit values[] = {Trit::kZero, Trit::kOne, Trit::kUnknown};
  for (const Trit a : values) {
    for (const Trit b : values) {
      const TritWord wa = TritWord::all(a);
      const TritWord wb = TritWord::all(b);
      for (const Trit c : values) {
        const TritWord out = tritword_ite(TritWord::all(c), wa, wb);
        Trit expected;
        switch (c) {
          case Trit::kOne: expected = a; break;
          case Trit::kZero: expected = b; break;
          default: expected = trit_merge(a, b);
        }
        EXPECT_EQ(out.lane(0), expected)
            << trit_char(c) << "?" << trit_char(a) << ":" << trit_char(b);
        EXPECT_EQ(out.lane(63), expected);
      }
    }
  }
}

TEST(WordSimulatorTest, RegisterSemantics) {
  // One enabled register, different stimulus per lane.
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId d = n.add_input("d");
  const NetId en = n.add_input("en");
  Register ff;
  ff.d = d;
  ff.clk = clk;
  ff.en = en;
  const NetId q = n.add_register(std::move(ff));
  n.add_output("o", q);
  WordSimulator sim(n);
  TritWord d_word;
  TritWord en_word;
  d_word.set_lane(0, Trit::kOne);   // lane 0: loads 1
  en_word.set_lane(0, Trit::kOne);
  d_word.set_lane(1, Trit::kOne);   // lane 1: enable off, holds X
  en_word.set_lane(1, Trit::kZero);
  d_word.set_lane(2, Trit::kZero);  // lane 2: X enable, 0 vs X state merges
  en_word.set_lane(2, Trit::kUnknown);
  sim.set_input(d, d_word);
  sim.set_input(en, en_word);
  sim.step();
  const auto out = sim.step();
  EXPECT_EQ(out[0].lane(0), Trit::kOne);
  EXPECT_EQ(out[0].lane(1), Trit::kUnknown);
  EXPECT_EQ(out[0].lane(2), Trit::kUnknown);
  EXPECT_EQ(sim.register_state(RegId{0}).lane(0), Trit::kOne);
  EXPECT_EQ(sim.register_state(RegId{0}).lane(1), Trit::kUnknown);
}

TEST(WordSimulatorTest, StateInjection) {
  const Netlist n = testing::chain_circuit(0, 1);
  WordSimulator sim(n);
  TritWord w;
  w.set_lane(5, Trit::kOne);
  w.set_lane(6, Trit::kZero);
  sim.set_register_state(RegId{0}, w);
  EXPECT_EQ(sim.register_state(RegId{0}), w);
  sim.settle();
  const auto out = sim.output_values();
  EXPECT_EQ(out[0].lane(5), Trit::kOne);
  EXPECT_EQ(out[0].lane(6), Trit::kZero);
  EXPECT_EQ(out[0].lane(7), Trit::kUnknown);
  // reset_to_unknown() clears injected state on every lane.
  sim.reset_to_unknown();
  EXPECT_EQ(sim.register_state(RegId{0}), TritWord{});
}

}  // namespace
}  // namespace mcrt
