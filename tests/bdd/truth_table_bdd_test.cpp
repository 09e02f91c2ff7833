// table_bdd(), the one truth-table-to-BDD conversion, against the table
// itself: the BDD must evaluate like the table on every row, for every
// table of arity 0-4 and seeded tables of arity 5-6, with pins that are
// plain variables and with pins that are composed functions.
#include "bdd/truth_table_bdd.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "base/rng.h"

namespace mcrt {
namespace {

/// Truth tables of the six base variables over their 64 assignments.
constexpr std::uint64_t kVarTable[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};

/// A pin function: its BDD and its table over the base variables.
struct Pin {
  BddRef bdd;
  std::uint64_t table;
};

/// Pin i is base variable i.
std::vector<Pin> variable_pins(BddManager& bdd, std::uint32_t arity) {
  std::vector<Pin> pins;
  for (std::uint32_t i = 0; i < arity; ++i) {
    pins.push_back({bdd.var(i), kVarTable[i]});
  }
  return pins;
}

/// Pin i is x_i xor (x_{i+1} and not x_{i+2}) (indices mod 6), and the
/// last pin repeats the first, so pins share variables.
std::vector<Pin> composed_pins(BddManager& bdd, std::uint32_t arity) {
  std::vector<Pin> pins;
  for (std::uint32_t i = 0; i < arity; ++i) {
    const std::uint32_t j = (i + 1) % 6;
    const std::uint32_t k = (i + 2) % 6;
    pins.push_back(
        {bdd.bdd_xor(bdd.var(i), bdd.bdd_and(bdd.var(j), bdd.nvar(k))),
         kVarTable[i] ^ (kVarTable[j] & ~kVarTable[k])});
  }
  if (arity >= 2) pins.back() = pins.front();
  return pins;
}

/// table_bdd(table, pins) evaluates like the table at every assignment of
/// the base variables, whose row has bit i = pin i's value there.
void expect_evaluates_like_table(BddManager& bdd, const TruthTable& table,
                                 const std::vector<Pin>& pins) {
  std::vector<BddRef> refs;
  for (const Pin& pin : pins) refs.push_back(pin.bdd);
  const BddRef f = table_bdd(bdd, table, refs);
  std::vector<bool> assignment(6);
  for (std::uint32_t a = 0; a < 64; ++a) {
    std::uint32_t row = 0;
    for (std::uint32_t i = 0; i < pins.size(); ++i) {
      row |= static_cast<std::uint32_t>((pins[i].table >> a) & 1) << i;
    }
    for (std::uint32_t v = 0; v < 6; ++v) assignment[v] = (a >> v) & 1;
    if (bdd.eval(f, assignment) != table.eval(row)) {
      ADD_FAILURE() << table.to_string() << " at assignment " << a;
      return;
    }
  }
}

TEST(TableBddTest, EveryTableUpToArityFour) {
  for (std::uint32_t arity = 0; arity <= 4; ++arity) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    BddManager bdd;
    for (std::uint32_t v = 0; v < 6; ++v) bdd.var(v);
    const std::vector<Pin> vars = variable_pins(bdd, arity);
    const std::vector<Pin> composed = composed_pins(bdd, arity);
    const std::uint64_t tables = std::uint64_t{1} << (1u << arity);
    for (std::uint64_t bits = 0; bits < tables; ++bits) {
      const TruthTable table(arity, bits);
      expect_evaluates_like_table(bdd, table, vars);
      expect_evaluates_like_table(bdd, table, composed);
    }
  }
}

TEST(TableBddTest, SeededTablesOfAritiesFiveAndSix) {
  Rng rng(2024);
  for (std::uint32_t arity = 5; arity <= 6; ++arity) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    BddManager bdd;
    for (std::uint32_t v = 0; v < 6; ++v) bdd.var(v);
    const std::vector<Pin> vars = variable_pins(bdd, arity);
    const std::vector<Pin> composed = composed_pins(bdd, arity);
    for (int t = 0; t < 500; ++t) {
      const TruthTable table(arity, rng.next());
      expect_evaluates_like_table(bdd, table, vars);
      expect_evaluates_like_table(bdd, table, composed);
    }
  }
}

TEST(TableBddTest, VariablePinsGiveTheCanonicalNode) {
  // Hash-consing: table_bdd's result is the node any other construction of
  // the same function returns.
  BddManager bdd;
  const BddRef a = bdd.var(0);
  const BddRef b = bdd.var(1);
  const BddRef c = bdd.var(2);
  const std::vector<BddRef> pins{a, b, c};
  EXPECT_EQ(table_bdd(bdd, TruthTable::and_n(3), pins),
            bdd.bdd_and(bdd.bdd_and(a, b), c));
  EXPECT_EQ(table_bdd(bdd, TruthTable::mux21(), pins), bdd.ite(a, c, b));
  EXPECT_EQ(table_bdd(bdd, TruthTable::constant(true), {}), BddManager::kTrue);
}

TEST(TableBddTest, PinCountMustMatchArity) {
  BddManager bdd;
  const std::vector<BddRef> one{bdd.var(0)};
  EXPECT_THROW(table_bdd(bdd, TruthTable::and_n(2), one),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcrt
