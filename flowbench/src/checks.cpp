// Output checks that do not come from the retimer.
#include "flowbench.h"
#include "sim/equivalence.h"
#include "tech/sta.h"
#include "verify/ternary_bmc.h"

namespace mcrt::flowbench {

std::vector<std::string> check_design(const std::string& name,
                                      const DesignRun& run, bool bmc,
                                      std::string* notes) {
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) {
    failures.push_back(name + ": " + what);
  };

  // 1. Simulation equivalence of the input BLIF against the written output.
  EquivalenceOptions eq;
  eq.runs = 16;
  eq.cycles = 64;
  const EquivalenceResult sim =
      check_sequential_equivalence(run.input, run.output, eq);
  if (!sim.equivalent) fail("simulation mismatch: " + sim.counterexample);

  // 2. The retimer's reported period, recomputed by static timing analysis
  //    of the netlist it returned.
  const std::int64_t sta = compute_period(run.retimed);
  if (sta != run.reported_period) {
    fail("STA period " + std::to_string(sta) + " != reported period " +
         std::to_string(run.reported_period));
  }

  // 3. Ternary BMC, unrolled as deep as the checker's input-variable budget
  //    allows. Defined-vs-X refinements are benign (a forward move across a
  //    load-enable register starts as X); defined outputs must never differ.
  if (bmc) {
    TernaryBmcOptions options;
    const std::size_t inputs = std::max<std::size_t>(1, run.input.inputs().size());
    options.depth = std::min<std::size_t>(4, options.max_input_vars / inputs - 1);
    options.x_refinement_ok = true;
    options.max_bdd_nodes = 250'000;
    if (options.max_input_vars / inputs < 2) {
      *notes += name + ": BMC skipped (too many inputs)\n";
    } else {
      const TernaryBmcResult r =
          check_ternary_bmc(run.input, run.output, options);
      switch (r.verdict) {
        case TernaryBmcResult::Verdict::kEquivalentUpToDepth:
          *notes += name + ": BMC equivalent to depth " +
                    std::to_string(options.depth) + "\n";
          break;
        case TernaryBmcResult::Verdict::kMismatch:
          fail("BMC mismatch at cycle " + std::to_string(r.mismatch_cycle) +
               ": " + r.detail);
          break;
        case TernaryBmcResult::Verdict::kUnsupported:
        case TernaryBmcResult::Verdict::kResourceLimit:
          *notes += name + ": BMC unverified: " + r.detail + "\n";
          break;
      }
    }
  }
  return failures;
}

}  // namespace mcrt::flowbench
