// Differential oracles: healthy cases pass every engine pair, the planted
// flip-lut miscompile is caught, and behavioural legs skip (rather than
// false-positive) on shapes the 3-valued simulators cannot judge.
#include "fuzz/oracles.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "fuzz/case_gen.h"
#include "../common/test_circuits.h"

namespace mcrt {
namespace {

FuzzCase chain_case(OracleKind oracle, const std::string& script) {
  FuzzCase c;
  c.name = "test-case";
  c.seed = 1;
  c.oracle = oracle;
  c.script = script;
  c.netlist = testing::chain_circuit(6, 3);
  return c;
}

TEST(Oracles, HealthyChainPassesEveryEnginePair) {
  for (OracleKind oracle :
       {OracleKind::kSerialVsBulk, OracleKind::kEngineVsReference}) {
    const FuzzCase c = chain_case(oracle, "sweep; retime(d=10,minperiod)");
    const OracleVerdict v = run_oracle(c);
    EXPECT_TRUE(v.pass) << oracle_name(oracle) << ": " << v.first_failure();
    EXPECT_FALSE(v.legs.empty());
  }
  // Every register class signature through the serial and bulk paths.
  FuzzCase zoo;
  zoo.name = "zoo";
  zoo.seed = 11;
  zoo.oracle = OracleKind::kSerialVsBulk;
  zoo.script = "decompose-sync; sweep; retime(d=10)";
  zoo.netlist = register_class_zoo(11);
  const OracleVerdict v = run_oracle(zoo);
  EXPECT_TRUE(v.pass) << "zoo: " << v.first_failure();
}

TEST(Oracles, InstallBreakRejectsUnknownSpecs) {
  PassRegistry registry;
  std::string error;
  EXPECT_FALSE(install_break(registry, "no-such-break", &error));
  EXPECT_FALSE(error.empty());
}

TEST(Oracles, FlipLutSabotageIsCaught) {
  FuzzCase c = chain_case(OracleKind::kSerialVsBulk, "sweep");
  c.break_spec = "flip-lut";
  const OracleVerdict v = run_oracle(c);
  EXPECT_FALSE(v.pass);
  // The miscompile is behavioural: both sides run the same broken pass, so
  // byte-identity holds and simulation equivalence is what must fire.
  bool sim_failed = false;
  for (const OracleLeg& leg : v.legs) {
    if (leg.name == "sim-equivalence" && !leg.pass) sim_failed = true;
  }
  EXPECT_TRUE(sim_failed) << v.first_failure();
}

TEST(Oracles, MultiClockSkipsBehaviouralLegs) {
  FuzzCase c;
  c.name = "dual";
  c.seed = 3;
  c.oracle = OracleKind::kSerialVsBulk;
  c.script = "sweep; retime(d=10)";
  c.netlist = dual_clock_rig(3);
  ASSERT_GT(clock_domain_count(c.netlist), 1u);
  const OracleVerdict v = run_oracle(c);
  EXPECT_TRUE(v.pass) << v.first_failure();
  bool sim_skipped = false;
  for (const OracleLeg& leg : v.legs) {
    if (leg.name == "sim-equivalence" &&
        leg.detail.rfind("skipped", 0) == 0) {
      sim_skipped = true;
    }
  }
  EXPECT_TRUE(sim_skipped);
}

/// The detail of `v`'s leg `name`, or nullopt when it did not run.
std::optional<std::string> leg_detail(const OracleVerdict& v,
                                      const std::string& name) {
  for (const OracleLeg& leg : v.legs) {
    if (leg.name == name) return leg.detail;
  }
  return std::nullopt;
}

TEST(Oracles, PeriodBoundRunsOnlyWhenTheScriptEndsWithRetime) {
  // Ending with retime: STA of the result is held to the period the pass
  // reports, so the leg runs (and passes on a healthy chain).
  const OracleVerdict timed = run_oracle(
      chain_case(OracleKind::kSerialVsBulk, "sweep; retime(d=10,minperiod)"));
  EXPECT_TRUE(timed.pass) << timed.first_failure();
  const auto bound = leg_detail(timed, "period-bound");
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(*bound, "");
  // A pass after retime may change the period; the leg is skipped.
  const OracleVerdict later = run_oracle(chain_case(
      OracleKind::kSerialVsBulk, "sweep; retime(d=10,minperiod); sweep"));
  EXPECT_TRUE(later.pass) << later.first_failure();
  const auto skipped = leg_detail(later, "period-bound");
  ASSERT_TRUE(skipped.has_value());
  EXPECT_EQ(skipped->rfind("skipped", 0), 0u) << *skipped;
}

TEST(Oracles, PreCancelledTokenDoesNotFabricateAFailure) {
  CancelToken cancel;
  cancel.request_cancel();
  OracleOptions options;
  options.cancel = &cancel;
  const FuzzCase c =
      chain_case(OracleKind::kSerialVsBulk, "sweep; retime(d=10)");
  try {
    const OracleVerdict v = run_oracle(c, options);
    // Both sides were cancelled identically — that must not read as an
    // engine mismatch (no bogus reproducer from a ctrl-C).
    EXPECT_TRUE(v.pass) << v.first_failure();
  } catch (const CancelledError&) {
    // Equally fine: the cancellation unwound out of the oracle.
  }
}

}  // namespace
}  // namespace mcrt
