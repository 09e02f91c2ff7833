#include "fuzz/case_gen.h"

#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

/// One register per class signature — plus an enable-chained pair and an
/// EN+sync combination — chained D -> Q, XORed against the data input at
/// the end so every register is observable (the shape of tests/sim's
/// register-class zoo).
Netlist zoo_circuit(Rng& rng) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId en = n.add_input("en");
  const NetId sc = n.add_input("sc");
  const NetId ac = n.add_input("ac");
  const NetId d = n.add_input("d");
  NetId chain = d;
  std::size_t i = 0;
  const auto add = [&](auto configure) {
    Register r;
    r.d = chain;
    r.clk = clk;
    r.name = str_format("z%zu", i++);
    configure(r);
    chain = n.add_register(std::move(r));
  };
  add([](Register&) {});
  add([&](Register& r) { r.en = en; });
  // Enable-chained: a second EN register fed directly by the first, sharing
  // the same enable net. Back-to-back gated registers are the shape that
  // breaks naive register replication (a stalled chain must stall every
  // interleaved stream identically), so the zoo keeps one permanently.
  add([&](Register& r) { r.en = en; });
  // EN combined with a synchronous control: the reset must win over a
  // deasserted enable (decompose-sync rewrites en' = en | sc).
  add([&](Register& r) {
    r.en = en;
    r.sync_ctrl = sc;
    r.sync_val = ResetVal::kZero;
  });
  add([&](Register& r) {
    r.sync_ctrl = sc;
    r.sync_val = ResetVal::kOne;
  });
  add([&](Register& r) {
    r.sync_ctrl = sc;
    r.sync_val = ResetVal::kZero;
  });
  add([&](Register& r) {
    r.sync_ctrl = sc;
    r.sync_val = ResetVal::kDontCare;
  });
  add([&](Register& r) {
    r.async_ctrl = ac;
    r.async_val = ResetVal::kOne;
  });
  add([&](Register& r) {
    r.async_ctrl = ac;
    r.async_val = ResetVal::kZero;
    r.en = en;
  });
  // A randomized combinational tail between the chain and the output so
  // retiming has gates to move registers across.
  const std::size_t tail = 1 + rng.below(4);
  NetId net = n.add_lut(TruthTable::xor_n(2), {chain, d}, "mix");
  for (std::size_t g = 0; g < tail; ++g) {
    net = n.add_lut(rng.chance(0.5) ? TruthTable::inverter()
                                    : TruthTable::buffer(),
                    {net}, str_format("t%zu", g));
  }
  n.add_output("o", net);
  return n;
}

/// Two pipelines in separate clock domains converging on one gate — the
/// multi-clock shape whose behavioural legs the oracles must skip.
Netlist dual_clock_circuit(Rng& rng) {
  Netlist n;
  const NetId clk_a = n.add_input("clk_a");
  const NetId clk_b = n.add_input("clk_b");
  const NetId x = n.add_input("x");
  const NetId y = n.add_input("y");
  const auto chain = [&](NetId net, std::size_t depth, const char* tag) {
    for (std::size_t i = 0; i < depth; ++i) {
      net = n.add_lut(TruthTable::inverter(), {net},
                      str_format("%s_g%zu", tag, i));
    }
    return net;
  };
  const auto reg = [&](NetId d, NetId clk, const char* name) {
    Register ff;
    ff.d = d;
    ff.clk = clk;
    ff.name = name;
    return n.add_register(std::move(ff));
  };
  const NetId qa = reg(chain(x, 1 + rng.below(4), "a"), clk_a, "ffa");
  const NetId qb = reg(chain(y, 1 + rng.below(4), "b"), clk_b, "ffb");
  const NetId g = n.add_lut(TruthTable::and_n(2), {qa, qb}, "join");
  n.add_output("o", g);
  return n;
}

Netlist sample_circuit(Rng& rng) {
  const std::uint64_t kind = rng.below(8);
  if (kind < 3) {
    // Property-test random sequential circuit with randomized knobs.
    RandomCircuitOptions options;
    options.gates = 20 + rng.below(80);
    options.registers = 4 + rng.below(16);
    options.feedback_registers = rng.below(4);
    options.inputs = 3 + rng.below(5);
    options.outputs = 2 + rng.below(4);
    options.control_signatures = 1 + rng.below(4);
    options.use_async = rng.chance(0.6);
    options.use_en = rng.chance(0.6);
    options.use_sync = rng.chance(0.4);
    return random_sequential_circuit(rng.next(), options);
  }
  if (kind < 6) {
    // One randomized workload profile (pipelines + accumulators + shifts +
    // control section) — the industrial-style shape of the paper suite.
    return generate_circuit(random_suite(1, rng.next())[0]);
  }
  if (kind < 7) return zoo_circuit(rng);
  return dual_clock_circuit(rng);
}

/// A random flow script over the registered passes. Always contains
/// "sweep" (so a sabotaged sweep is always exercised) and exactly one
/// "retime(" statement (so the mono-vs-windowed oracle always applies).
std::string sample_script(Rng& rng) {
  std::vector<std::string> statements;
  if (rng.chance(0.4)) statements.push_back("decompose-sync");
  if (rng.chance(0.15)) statements.push_back("decompose-en");
  statements.push_back("sweep");
  if (rng.chance(0.5)) statements.push_back("strash");
  if (rng.chance(0.3)) statements.push_back("regsweep");
  if (rng.chance(0.25)) statements.push_back("map(k=4,d=10)");
  std::string retime = "retime(d=10";
  if (rng.chance(0.5)) retime += ",minperiod";
  if (rng.chance(0.25)) retime += ",no-sharing";
  retime += ")";
  statements.push_back(std::move(retime));
  if (rng.chance(0.2)) statements.push_back("sweep");
  std::string script;
  for (const std::string& statement : statements) {
    if (!script.empty()) script += "; ";
    script += statement;
  }
  return script;
}

FuzzCase sample_case(std::uint64_t case_seed, OracleKind oracle) {
  Rng rng(case_seed);
  FuzzCase c;
  c.seed = case_seed;
  c.oracle = oracle;
  c.netlist = sample_circuit(rng);
  c.script = sample_script(rng);
  c.name = str_format("fuzz-%s-s%llu", oracle_name(oracle),
                      static_cast<unsigned long long>(case_seed));
  return c;
}

}  // namespace

std::uint64_t fuzz_case_seed(std::uint64_t base_seed, std::size_t index) {
  // splitmix64 on (base ^ golden-ratio-stepped index): independent,
  // well-mixed per-case streams from one CLI-level seed.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

FuzzCase generate_fuzz_case(std::uint64_t base_seed, std::size_t index) {
  return sample_case(fuzz_case_seed(base_seed, index),
                     static_cast<OracleKind>(index % kOracleCount));
}

FuzzCase generate_fuzz_case_from_seed(std::uint64_t case_seed,
                                      OracleKind oracle) {
  return sample_case(case_seed, oracle);
}

Netlist register_class_zoo(std::uint64_t seed) {
  Rng rng(seed);
  return zoo_circuit(rng);
}

Netlist dual_clock_rig(std::uint64_t seed) {
  Rng rng(seed);
  return dual_clock_circuit(rng);
}

}  // namespace mcrt
