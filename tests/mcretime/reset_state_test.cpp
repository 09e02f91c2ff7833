#include "mcretime/reset_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace mcrt {
namespace {

/// Does every completion of the partial assignment `pins` evaluate f to
/// `target`?
bool implies_target(const TruthTable& f, bool target,
                    const std::vector<ResetVal>& pins) {
  for (std::uint32_t row = 0; row < (1u << f.input_count()); ++row) {
    bool in_cube = true;
    for (std::uint32_t i = 0; i < f.input_count() && in_cube; ++i) {
      const bool bit = (row >> i) & 1;
      in_cube = pins[i] == ResetVal::kDontCare ||
                bit == (pins[i] == ResetVal::kOne);
    }
    if (in_cube && f.eval(row) != target) return false;
  }
  return true;
}

constexpr int kNoCube = 1 << 20;

/// Fewest literals of a cube that decides pins in ascending order, each
/// one only if the function left so far depends on it, until that
/// function is constant `target`: the cubes that are paths of f's ordered
/// BDD, enumerated on truth-table cofactors. kNoCube if there is none.
int shortest_ordered_cube(const TruthTable& f, bool target) {
  if (f.is_const(target)) return 0;
  if (f.is_const(!target)) return kNoCube;
  std::uint32_t top = 0;
  while (f.input_redundant(top)) ++top;
  return 1 + std::min(shortest_ordered_cube(f.cofactor(top, false), target),
                      shortest_ordered_cube(f.cofactor(top, true), target));
}

TEST(MergeResetValuesTest, AllDontCare) {
  const auto merged = merge_reset_values(
      {ResetVal::kDontCare, ResetVal::kDontCare});
  ASSERT_TRUE(merged);
  EXPECT_EQ(*merged, ResetVal::kDontCare);
}

TEST(MergeResetValuesTest, ConcreteAbsorbsDontCare) {
  const auto merged = merge_reset_values(
      {ResetVal::kDontCare, ResetVal::kOne, ResetVal::kDontCare});
  ASSERT_TRUE(merged);
  EXPECT_EQ(*merged, ResetVal::kOne);
}

TEST(MergeResetValuesTest, ClashFails) {
  EXPECT_FALSE(merge_reset_values({ResetVal::kZero, ResetVal::kOne}));
}

TEST(ImplyTest, AndGate) {
  const TruthTable and2 = TruthTable::and_n(2);
  EXPECT_EQ(imply_through(and2, {ResetVal::kOne, ResetVal::kOne}),
            ResetVal::kOne);
  EXPECT_EQ(imply_through(and2, {ResetVal::kZero, ResetVal::kDontCare}),
            ResetVal::kZero);
  EXPECT_EQ(imply_through(and2, {ResetVal::kOne, ResetVal::kDontCare}),
            ResetVal::kDontCare);
}

TEST(ImplyTest, XorUnknownDominates) {
  const TruthTable xor2 = TruthTable::xor_n(2);
  EXPECT_EQ(imply_through(xor2, {ResetVal::kDontCare, ResetVal::kOne}),
            ResetVal::kDontCare);
  EXPECT_EQ(imply_through(xor2, {ResetVal::kOne, ResetVal::kOne}),
            ResetVal::kZero);
}

TEST(JustifyTest, AndToOneForcesAllInputs) {
  const auto pins = justify_through(TruthTable::and_n(3), true);
  ASSERT_TRUE(pins);
  for (const ResetVal v : *pins) EXPECT_EQ(v, ResetVal::kOne);
}

TEST(JustifyTest, AndToZeroUsesOneLiteral) {
  // f = a & b & c = 0 needs only one input at 0; the rest stay don't-care
  // (the paper's "select as many don't cares as possible").
  const auto pins = justify_through(TruthTable::and_n(3), false);
  ASSERT_TRUE(pins);
  int concrete = 0;
  for (const ResetVal v : *pins) {
    if (v != ResetVal::kDontCare) {
      ++concrete;
      EXPECT_EQ(v, ResetVal::kZero);
    }
  }
  EXPECT_EQ(concrete, 1);
}

TEST(JustifyTest, OrToOneUsesOneLiteral) {
  const auto pins = justify_through(TruthTable::or_n(4), true);
  ASSERT_TRUE(pins);
  int concrete = 0;
  for (const ResetVal v : *pins) {
    if (v != ResetVal::kDontCare) ++concrete;
  }
  EXPECT_EQ(concrete, 1);
}

TEST(JustifyTest, ConstantMismatchFails) {
  EXPECT_FALSE(justify_through(TruthTable::constant(false), true));
  EXPECT_TRUE(justify_through(TruthTable::constant(true), true));
}

TEST(JustifyTest, XorNeedsBothInputs) {
  const auto pins = justify_through(TruthTable::xor_n(2), true);
  ASSERT_TRUE(pins);
  // XOR to 1: both inputs must be concrete and different.
  ASSERT_EQ(pins->size(), 2u);
  EXPECT_NE((*pins)[0], ResetVal::kDontCare);
  EXPECT_NE((*pins)[1], ResetVal::kDontCare);
  EXPECT_NE((*pins)[0], (*pins)[1]);
}

TEST(JustifyTest, CubeIsAShortestOrderedImplicant) {
  // Every table of arity 0-4, both targets, by brute force: the pins are a
  // satisfying partial assignment with as few literals as any cube of the
  // BDD's variable order allows, and there are none only when f is the
  // other constant. (A shorter implicant that skips a variable the
  // function depends on is not searched for: tt3:0x6 -> 0 takes pins 0
  // and 1 although pin 2 = 1 alone suffices.)
  for (std::uint32_t arity = 0; arity <= 4; ++arity) {
    const std::uint64_t tables = std::uint64_t{1} << (1u << arity);
    for (std::uint64_t bits = 0; bits < tables; ++bits) {
      const TruthTable f(arity, bits);
      for (const bool target : {false, true}) {
        const int want = shortest_ordered_cube(f, target);
        const auto pins = justify_through(f, target);
        const std::string where =
            f.to_string() + " -> " + std::to_string(target);
        ASSERT_EQ(pins.has_value(), want != kNoCube) << where;
        if (!pins) continue;
        ASSERT_EQ(pins->size(), arity) << where;
        EXPECT_TRUE(implies_target(f, target, *pins)) << where;
        EXPECT_EQ(std::count_if(pins->begin(), pins->end(),
                                [](ResetVal v) {
                                  return v != ResetVal::kDontCare;
                                }),
                  want)
            << where;
      }
    }
  }
}

TEST(JustifyTest, JustifiedValuesImplyTarget) {
  // Round-trip property on assorted functions.
  const TruthTable tables[] = {
      TruthTable::and_n(2),  TruthTable::or_n(3),   TruthTable::nand_n(2),
      TruthTable::xor_n(3),  TruthTable::mux21(),   TruthTable::inverter(),
  };
  for (const TruthTable& f : tables) {
    for (const bool target : {false, true}) {
      const auto pins = justify_through(f, target);
      if (!pins) continue;
      EXPECT_EQ(imply_through(f, *pins),
                target ? ResetVal::kOne : ResetVal::kZero)
          << f.to_string() << " -> " << target;
    }
  }
}

}  // namespace
}  // namespace mcrt
