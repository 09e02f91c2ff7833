// BLIF-driven flow: read an (extended) BLIF netlist, run minarea
// mc-retiming at the minimum feasible period, and write the result back as
// BLIF. Demonstrates the `.mclatch` extension carrying load enables and
// asynchronous set/clear through a file-based flow.
//
//   $ ./blif_flow [input.blif [output.blif]]
//
// Without arguments, a built-in demo circuit is used and the output goes
// to stdout.
#include <cstdio>
#include <iostream>

#include "blif/blif.h"
#include "mcretime/mc_retime.h"
#include "sim/equivalence.h"
#include "tech/sta.h"

namespace {

const char* kDemoBlif = R"(# Demo: enabled pipeline with async clear.
.model demo
.inputs clk rst en a b
.outputs y
# Combinational cascade.
.names a b t0
11 1
.names t0 b t1
10 1
.names t1 a t2
01 1
.names t2 t1 t3
11 0
# Two pipeline registers bunched at the end (retiming will spread them).
.mclatch t3 p0 clk=clk en=en async=rst:0
.mclatch p0 p1 clk=clk en=en async=rst:0
.names p1 y
1 1
.end
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace mcrt;
  std::variant<Netlist, BlifError> parsed =
      argc > 1 ? read_blif_file(argv[1]) : read_blif_string(kDemoBlif);
  if (const auto* err = std::get_if<BlifError>(&parsed)) {
    std::fprintf(stderr, "BLIF parse error at line %zu: %s\n", err->line,
                 err->message.c_str());
    return 1;
  }
  Netlist netlist = std::move(std::get<Netlist>(parsed));
  // Unit delays per LUT if the file carries none.
  set_default_lut_delays(netlist, 10);

  std::fprintf(stderr, "in:  FF=%zu LUT=%zu period=%lld\n",
               netlist.register_count(), netlist.stats().luts,
               static_cast<long long>(compute_period(netlist)));

  const auto result = mc_retime(netlist, {});
  if (!result.success) {
    std::fprintf(stderr, "mc-retiming failed: %s\n", result.error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "out: FF=%zu LUT=%zu period=%lld "
               "(classes=%zu, steps=%zu/%zu, attempts=%zu)\n",
               result.netlist.register_count(), result.netlist.stats().luts,
               static_cast<long long>(result.stats.period_after),
               result.stats.num_classes, result.stats.moved_layers,
               result.stats.possible_steps, result.stats.attempts);

  const auto eq = check_sequential_equivalence(netlist, result.netlist, {});
  std::fprintf(stderr, "equivalence: %s\n", eq.equivalent ? "PASS" : "FAIL");

  if (argc > 2) {
    if (!write_blif_file(result.netlist, argv[2], "retimed")) {
      std::fprintf(stderr, "cannot write %s\n", argv[2]);
      return 1;
    }
  } else {
    write_blif(result.netlist, std::cout, "retimed");
  }
  return eq.equivalent ? 0 : 1;
}
