#include "netlist/structural_hash.h"

#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "../common/test_circuits.h"
#include "blif/blif.h"
#include "netlist/netlist.h"

namespace mcrt {
namespace {

// The same two-gate, one-register circuit built with different insertion
// orders and different internal net names. Structurally identical.
Netlist demo_forward() {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId g = n.add_lut(TruthTable::xor_n(2), {a, b}, "g");
  const NetId inv = n.add_lut(TruthTable::inverter(), {g}, "inv");
  Register ff;
  ff.d = inv;
  ff.q = n.add_net("q");
  ff.clk = clk;
  const NetId q = n.add_register(std::move(ff));
  n.add_output("o", q);
  return n;
}

Netlist demo_shuffled() {
  Netlist n;
  // Inputs declared in a different order, nets named differently, gates
  // created back-to-front via pre-declared nets.
  const NetId b = n.add_input("b");
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId xor_net = n.add_net("t17");
  const NetId inv = n.add_lut(TruthTable::inverter(), {xor_net}, "n3");
  n.add_lut_driving(xor_net, TruthTable::xor_n(2), {a, b});
  Register ff;
  ff.d = inv;
  ff.q = n.add_net("state");
  ff.clk = clk;
  const NetId q = n.add_register(std::move(ff));
  n.add_output("o", q);
  return n;
}

TEST(StructuralHashTest, InsertionOrderAndNetNamesDoNotMatter) {
  const StructuralHash base = structural_hash(demo_forward());
  EXPECT_EQ(base, structural_hash(demo_shuffled()));
}

TEST(StructuralHashTest, HexIs128BitsAndNonTrivial) {
  const StructuralHash hash = structural_hash(demo_forward());
  EXPECT_EQ(hash.hex().size(), 32u);
  EXPECT_FALSE(hash.hi == 0 && hash.lo == 0);
}

TEST(StructuralHashTest, InterfaceNamesMatter) {
  Netlist renamed = demo_forward();
  // Primary IO names are part of what a circuit *is*.
  Netlist other;
  {
    other = demo_forward();
  }
  Netlist changed;
  {
    Netlist n;
    const NetId clk = n.add_input("clk");
    const NetId a = n.add_input("a");
    const NetId b = n.add_input("b");
    const NetId g = n.add_lut(TruthTable::xor_n(2), {a, b}, "g");
    const NetId inv = n.add_lut(TruthTable::inverter(), {g}, "inv");
    Register ff;
    ff.d = inv;
    ff.q = n.add_net("q");
    ff.clk = clk;
    const NetId q = n.add_register(std::move(ff));
    n.add_output("out_renamed", q);
    changed = std::move(n);
  }
  EXPECT_EQ(structural_hash(renamed), structural_hash(other));
  EXPECT_NE(structural_hash(renamed), structural_hash(changed));
}

TEST(StructuralHashTest, LogicFunctionMatters) {
  Netlist n = demo_forward();
  Netlist and_variant;
  {
    Netlist m;
    const NetId clk = m.add_input("clk");
    const NetId a = m.add_input("a");
    const NetId b = m.add_input("b");
    const NetId g = m.add_lut(TruthTable::and_n(2), {a, b}, "g");
    const NetId inv = m.add_lut(TruthTable::inverter(), {g}, "inv");
    Register ff;
    ff.d = inv;
    ff.q = m.add_net("q");
    ff.clk = clk;
    const NetId q = m.add_register(std::move(ff));
    m.add_output("o", q);
    and_variant = std::move(m);
  }
  EXPECT_NE(structural_hash(n), structural_hash(and_variant));
}

TEST(StructuralHashTest, RegisterClassMatters) {
  // Adding an enable, a sync reset, or flipping a reset value must each
  // move the hash: they change the register's class, and classes decide
  // which registers may share a position after retiming.
  Netlist base = demo_forward();
  const StructuralHash h0 = structural_hash(base);

  Netlist with_en = demo_forward();
  with_en.reg(RegId{0}).en = with_en.node(with_en.inputs()[1]).output;
  const StructuralHash h_en = structural_hash(with_en);
  EXPECT_NE(h0, h_en);

  Netlist with_sync = demo_forward();
  with_sync.reg(RegId{0}).sync_ctrl =
      with_sync.node(with_sync.inputs()[2]).output;
  with_sync.reg(RegId{0}).sync_val = ResetVal::kZero;
  const StructuralHash h_sync0 = structural_hash(with_sync);
  EXPECT_NE(h0, h_sync0);
  EXPECT_NE(h_en, h_sync0);

  // Same wiring, different reset *value*: still a different class.
  with_sync.reg(RegId{0}).sync_val = ResetVal::kOne;
  const StructuralHash h_sync1 = structural_hash(with_sync);
  EXPECT_NE(h_sync0, h_sync1);

  // Async vs sync control on the same net: different class again.
  Netlist with_async = demo_forward();
  with_async.reg(RegId{0}).async_ctrl =
      with_async.node(with_async.inputs()[2]).output;
  with_async.reg(RegId{0}).async_val = ResetVal::kZero;
  EXPECT_NE(h_sync0, structural_hash(with_async));
}

TEST(StructuralHashTest, WriteReadRoundTripIsStable) {
  // Netlists *parsed from BLIF text* must be a round-trip fixpoint:
  // write -> read must preserve the hash (and the bytes), so a circuit
  // hashes the same before and after a trip through a file. (The very
  // first serialization of a hand-built netlist may differ structurally:
  // the writer materializes output-binding buffers that exist only
  // implicitly in memory.)
  const Netlist circuits[] = {demo_forward(), testing::fig1_circuit()};
  for (const Netlist& original : circuits) {
    auto parsed = read_blif_string(write_blif_string(original, "rt"));
    ASSERT_TRUE(std::holds_alternative<Netlist>(parsed))
        << std::get<BlifError>(parsed).message;
    const Netlist& first = std::get<Netlist>(parsed);
    const StructuralHash anchor = structural_hash(first);

    const std::string text = write_blif_string(first, "rt");
    auto parsed2 = read_blif_string(text);
    ASSERT_TRUE(std::holds_alternative<Netlist>(parsed2));
    const Netlist& second = std::get<Netlist>(parsed2);
    EXPECT_EQ(anchor, structural_hash(second));
    // The serialization itself is a fixpoint too.
    EXPECT_EQ(text, write_blif_string(second, "rt"));
    // And re-parsing identical text is trivially identical.
    auto reparsed = read_blif_string(text);
    ASSERT_TRUE(std::holds_alternative<Netlist>(reparsed));
    EXPECT_EQ(structural_hash(second),
              structural_hash(std::get<Netlist>(reparsed)));
  }
}

TEST(StructuralHashTest, Fig1HashDiffersFromDemo) {
  EXPECT_NE(structural_hash(testing::fig1_circuit()),
            structural_hash(demo_forward()));
}

}  // namespace
}  // namespace mcrt
