// Delta-debugging minimizer for failing differential fuzz cases.
//
// Given a FuzzCase the oracle rejects, the shrinker greedily reduces it
// while re-running the oracle after every candidate edit, keeping an edit
// only when the reduced case still fails:
//
//   1. Script reduction: drop one flow-script statement at a time
//      (re-rendered from the parsed PassSpecs, so argument syntax is
//      preserved). Vacuous-pass legs in the oracles guarantee this cannot
//      trade a real mismatch for a degenerate "nothing to compare" case.
//   2. Output reduction: drop one primary output at a time and prune the
//      logic only it observed (cone extraction).
//   3. Net cuts: promote an internal net (LUT output or register Q) to a
//      fresh primary input and prune everything behind it — the cone
//      extraction step of the classic hierarchical delta debug.
//
// Rounds repeat until a fixpoint, a round cap, an oracle-run cap or a
// wall-clock budget. The result is a self-contained case (typically a
// handful of gates) ready to be written as an `mcrt-fuzz-repro/1` file.
#pragma once

#include <cstddef>

#include "fuzz/fuzz_case.h"
#include "fuzz/oracles.h"

namespace mcrt {

struct ShrinkOptions {
  std::size_t max_rounds = 8;
  std::size_t max_oracle_runs = 250;
  double budget_seconds = 120.0;  ///< 0 = unbounded
  OracleOptions oracle;
};

struct ShrinkResult {
  FuzzCase minimized;
  bool still_failing = false;  ///< the minimized case still fails its oracle
  std::size_t oracle_runs = 0;
  std::size_t rounds = 0;
  Netlist::Stats before;
  Netlist::Stats after;
};

/// Minimizes `failing`. If the case does not actually fail its oracle, the
/// input is returned unchanged with still_failing == false.
[[nodiscard]] ShrinkResult shrink_case(const FuzzCase& failing,
                                       const ShrinkOptions& options = {});

/// Extracts the cone of influence of `keep_outputs` (indices into
/// Netlist::outputs()), promoting every net whose id is flagged in `cut`
/// to a primary input. Exposed for the shrinker tests.
[[nodiscard]] Netlist extract_cone(const Netlist& netlist,
                                   const std::vector<std::size_t>& keep_outputs,
                                   const std::vector<char>& cut);

}  // namespace mcrt
