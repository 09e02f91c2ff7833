// FuzzCase model: oracle naming, the mcrt-fuzz-repro/1 round trip, clock
// domain counting, and the determinism contract of the case sampler.
#include "fuzz/fuzz_case.h"

#include <gtest/gtest.h>

#include <set>

#include "blif/blif.h"
#include "fuzz/case_gen.h"
#include "netlist/structural_hash.h"
#include "sim/equivalence.h"
#include "../common/test_circuits.h"

namespace mcrt {
namespace {

TEST(OracleName, RoundTripsAllKinds) {
  const OracleKind kinds[] = {OracleKind::kSerialVsBulk,
                              OracleKind::kEngineVsReference};
  std::set<std::string> names;
  for (OracleKind kind : kinds) {
    const char* name = oracle_name(kind);
    ASSERT_NE(name, nullptr);
    names.insert(name);
    const auto parsed = oracle_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(names.size(), kOracleCount) << "names must be distinct";
  EXPECT_FALSE(oracle_from_name("not-an-oracle").has_value());
  EXPECT_FALSE(oracle_from_name("").has_value());
  EXPECT_FALSE(oracle_from_name("mono-vs-windowed").has_value());
}

TEST(ReproFormat, RoundTripsACase) {
  FuzzCase c;
  c.name = "fuzz-serial-vs-bulk-s42";
  c.seed = 0xdeadbeefcafef00dULL;  // needs all 64 bits to survive
  c.oracle = OracleKind::kEngineVsReference;
  c.script = "sweep; retime(d=10,minperiod)";
  // Delay-free, like every sampled case: gate delays are not part of the
  // BLIF exchange format — flow scripts assign them (d=10).
  c.netlist = testing::chain_circuit(4, 2, 0);

  const std::string text = write_repro_string(c);
  EXPECT_EQ(text.rfind("# mcrt-fuzz-repro/1", 0), 0u);
  // No break: header for a healthy case.
  EXPECT_EQ(text.find("break:"), std::string::npos);

  auto parsed = read_repro_string(text);
  ASSERT_TRUE(std::holds_alternative<FuzzCase>(parsed))
      << std::get<std::string>(parsed);
  const FuzzCase& back = std::get<FuzzCase>(parsed);
  EXPECT_EQ(back.name, c.name);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.oracle, c.oracle);
  EXPECT_EQ(back.script, c.script);
  EXPECT_TRUE(back.break_spec.empty());
  // BLIF inserts an alias buffer when an output name differs from its
  // driving net, so the parsed circuit may gain a buffer LUT; what the
  // oracles rely on is that the *bytes* both engines parse are stable and
  // the behaviour is unchanged.
  EXPECT_EQ(write_blif_string(back.netlist), write_blif_string(c.netlist));
  const EquivalenceResult eq =
      check_sequential_equivalence(c.netlist, back.netlist, {});
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(ReproFormat, BreakSpecTravelsInTheFile) {
  FuzzCase c;
  c.name = "self-test";
  c.seed = 7;
  c.oracle = OracleKind::kSerialVsBulk;
  c.script = "sweep";
  c.break_spec = "flip-lut";
  c.netlist = testing::chain_circuit(2, 1);
  auto parsed = read_repro_string(write_repro_string(c));
  ASSERT_TRUE(std::holds_alternative<FuzzCase>(parsed))
      << std::get<std::string>(parsed);
  EXPECT_EQ(std::get<FuzzCase>(parsed).break_spec, "flip-lut");
}

TEST(ReproFormat, RejectsGarbageWithAnExplanation) {
  for (const char* bad : {
           "",
           "not a repro at all",
           "# mcrt-fuzz-repro/1\nname: x\n",            // headers but no blif
           "# mcrt-fuzz-repro/2\nname: x\nblif:\n",     // wrong version
           "# mcrt-fuzz-repro/1\noracle: bogus\nblif:\n.model m\n.end\n",
       }) {
    auto parsed = read_repro_string(bad);
    EXPECT_TRUE(std::holds_alternative<std::string>(parsed)) << bad;
    if (std::holds_alternative<std::string>(parsed)) {
      EXPECT_FALSE(std::get<std::string>(parsed).empty()) << bad;
    }
  }
}

TEST(ClockDomains, CountsDistinctClockNets) {
  Netlist comb;
  const NetId a = comb.add_input("a");
  comb.add_output("o", comb.add_lut(TruthTable::inverter(), {a}, "g"));
  EXPECT_EQ(clock_domain_count(comb), 0u);

  EXPECT_EQ(clock_domain_count(testing::chain_circuit(3, 2)), 1u);
  EXPECT_EQ(clock_domain_count(register_class_zoo(1)), 1u);
  EXPECT_EQ(clock_domain_count(dual_clock_rig(1)), 2u);
}

TEST(CaseGen, SameSeedAndIndexIsIdentical) {
  for (std::size_t index = 0; index < 8; ++index) {
    const FuzzCase a = generate_fuzz_case(99, index);
    const FuzzCase b = generate_fuzz_case(99, index);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.oracle, b.oracle);
    EXPECT_EQ(a.script, b.script);
    EXPECT_EQ(structural_hash(a.netlist), structural_hash(b.netlist));
    // The circuit must be valid and have something to check.
    EXPECT_TRUE(a.netlist.validate().empty());
    EXPECT_FALSE(a.netlist.outputs().empty());
  }
}

TEST(CaseGen, OracleRotatesRoundRobin) {
  for (std::size_t index = 0; index < 8; ++index) {
    EXPECT_EQ(static_cast<std::size_t>(generate_fuzz_case(1, index).oracle),
              index % kOracleCount);
  }
}

TEST(CaseGen, CaseSeedRegeneratesTheSameCase) {
  const FuzzCase by_index = generate_fuzz_case(5, 2);
  const FuzzCase by_seed = generate_fuzz_case_from_seed(
      fuzz_case_seed(5, 2), by_index.oracle);
  EXPECT_EQ(by_seed.name, by_index.name);
  EXPECT_EQ(by_seed.script, by_index.script);
  EXPECT_EQ(structural_hash(by_seed.netlist),
            structural_hash(by_index.netlist));
}

TEST(CaseGen, DistinctIndicesGiveDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::size_t index = 0; index < 64; ++index) {
    seeds.insert(fuzz_case_seed(1, index));
  }
  EXPECT_EQ(seeds.size(), 64u);
}

TEST(CaseGen, ScriptAlwaysHasSweepAndOneRetime) {
  for (std::size_t index = 0; index < 16; ++index) {
    const FuzzCase c = generate_fuzz_case(3, index);
    EXPECT_NE(c.script.find("sweep"), std::string::npos) << c.script;
    EXPECT_NE(c.script.find("retime("), std::string::npos) << c.script;
  }
}

}  // namespace
}  // namespace mcrt
