// The whole toolchain on one generated circuit, mirroring the paper's §6
// script: generate -> decompose sync controls -> sweep -> map ->
// mc-retime (minarea @ minperiod) -> remap -> verify (simulation + ternary
// BMC) -> timing report, with BLIF/dot artifacts written alongside.
//
//   $ ./full_flow [outdir]
#include <cstdio>
#include <string>

#include "blif/blif.h"
#include "mcretime/mc_retime.h"
#include "netlist/dot_export.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/flowmap.h"
#include "tech/sta.h"
#include "tech/timing_report.h"
#include "transform/decompose_controls.h"
#include "transform/sweep.h"
#include "verify/ternary_bmc.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace mcrt;
  const std::string outdir = argc > 1 ? argv[1] : ".";

  std::printf("== Full multiple-class retiming flow ==\n\n");

  // 1. "HDL analyzer" output: the C1 profile of the synthetic suite.
  CircuitProfile profile = paper_suite()[0];
  Netlist rtl = generate_circuit(profile);
  std::printf("[1] generated %s: %zu gates, %zu registers\n",
              profile.name.c_str(), rtl.stats().luts, rtl.register_count());

  // 2. Technology-independent prep: sync set/clear -> logic, sweep.
  rtl = sweep(decompose_sync_controls(rtl), nullptr);

  // 3. Map to 4-LUTs.
  const FlowMapResult mapped = flowmap_map(decompose_to_binary(rtl), {});
  const Netlist& before = mapped.mapped;
  std::printf("[2] mapped: %zu LUTs, depth %u, period %lld\n",
              mapped.lut_count, mapped.depth,
              static_cast<long long>(compute_period(before)));
  write_blif_file(before, outdir + "/full_flow_before.blif");
  write_dot_file(before, outdir + "/full_flow_before.dot");

  // 4. Retime + remap.
  const McRetimeResult retimed = mc_retime(before, {});
  if (!retimed.success) {
    std::printf("retiming failed: %s\n", retimed.error.c_str());
    return 1;
  }
  const FlowMapResult remapped =
      flowmap_map(decompose_to_binary(retimed.netlist), {});
  const Netlist& after = remapped.mapped;
  std::printf("[3] retimed: %zu classes, %zu/%zu steps, period %lld -> %lld,"
              " FF %zu -> %zu\n",
              retimed.stats.num_classes, retimed.stats.moved_layers,
              retimed.stats.possible_steps,
              static_cast<long long>(retimed.stats.period_before),
              static_cast<long long>(compute_period(before)) == 0
                  ? 0
                  : static_cast<long long>(compute_period(after)),
              before.register_count(), after.register_count());
  write_blif_file(after, outdir + "/full_flow_after.blif");
  write_dot_file(after, outdir + "/full_flow_after.dot");

  // 5. Verify: random simulation plus exhaustive bounded check.
  EquivalenceOptions eq_opt;
  eq_opt.runs = 4;
  const auto sim = check_sequential_equivalence(before, after, eq_opt);
  std::printf("[4] simulation equivalence: %s (%zu defined outputs)\n",
              sim.equivalent ? "PASS" : "FAIL",
              sim.compared_defined_outputs);
  TernaryBmcOptions bmc_opt;
  bmc_opt.depth = 4;
  bmc_opt.max_input_vars = 120;
  const auto bmc = check_ternary_bmc(before, after, bmc_opt);
  std::printf("    ternary BMC: %s (%s)\n",
              bmc.verdict == TernaryBmcResult::Verdict::kEquivalentUpToDepth
                  ? "PASS"
                  : bmc.verdict == TernaryBmcResult::Verdict::kMismatch
                        ? "FAIL"
                        : "SKIPPED",
              bmc.detail.c_str());

  // 6. Timing report of the final circuit.
  std::printf("[5] three worst paths after retiming:\n%s",
              format_timing_report(after, worst_paths(after, 3)).c_str());

  std::printf("[6] artifacts: full_flow_{before,after}.{blif,dot} in %s\n",
              outdir.c_str());
  return sim.equivalent ? 0 : 1;
}
