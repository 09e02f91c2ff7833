// Benchmark harness: pinned workload suites emitted as schema-versioned
// JSON so the perf trajectory is tracked in-repo (BENCH_paper.json and
// BENCH_window.json at the repo root, regenerated by
// tools/update_bench_baseline.sh). flowbench/, which BENCHMARK.json runs,
// times the paper's flow end to end and per layer on scaled designs.
//
// Two reports:
//  - paper: the paper's §6 evidence — Tables 1-3, Figs. 1, 4 and 5, the
//    area/period trade-off and the class-count ablation — on the
//    paper_suite() circuits and two fixed-netlist sweeps
//    (BENCH_paper.json; src/perf/paper_bench.cpp lists the columns). Table
//    2 and 3 rows are verified sequentially equivalent to their input.
//  - window: retime_windowed's label solve vs the monolithic minperiod
//    solver on workload::scaled_profile designs (BENCH_window.json). Small
//    entries run the monolithic solver to completion and record its
//    period and deterministic work counters (monolithic_feas_probes,
//    _feas_rounds, _dc_relaxations, _wd_sweeps; see RetimeWorkCounters);
//    the headline >= 1e5-gate entry runs the monolithic solve under a
//    deadline and, if it hits it, records the speedup as a lower bound
//    with monolithic_capped=true.
//    Entries also record the period quality gap vs the monolithic optimum
//    where it is known.
// Every entry is also *verified* (equivalence for paper; legal stitched
// labels and period dominance for window), so a bench run doubles as a
// coarse-grained differential — `identical` is part of the schema and
// validate_bench_report() rejects documents where any entry failed its
// check.
//
// Regression gating never compares wall-clock, so the committed baselines
// are machine-independent. The paper suite is gated on its Table 1-3
// columns (delays exact, FF and LUT counts may not rise) and on its Fig. 5
// relocation attempts, which may not rise either. The window suite
// is gated on exact periods and on its work counters, which may not rise;
// its wall-clock speedup is reported only, because it shrinks whenever the
// monolithic solver gets faster.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.h"

namespace mcrt {

inline constexpr const char* kBenchPaperSchema = "mcrt-bench-paper/1";
inline constexpr const char* kBenchWindowSchema = "mcrt-bench-window/1";

struct BenchOptions {
  /// Trimmed circuit list and fewer repetitions; the CI smoke setting.
  bool quick = false;
  /// Seed for the window suite's scaled designs.
  std::uint64_t seed = 1;
};

/// Runs the paper suite; returns a kBenchPaperSchema document. Quick and
/// full mode run the same suite.
Json run_paper_bench(const BenchOptions& options);

/// Runs the windowed-vs-monolithic retiming benchmark; returns a
/// kBenchWindowSchema document. Quick mode keeps the uncapped entries only
/// (minutes -> seconds); the full run adds the capped 1e5-gate headline.
Json run_window_bench(const BenchOptions& options);

/// A bench document: schema, options, `entries` and a summary with the
/// entry count, the geomean of the speedup columns (if any) and whether
/// every entry is identical.
Json assemble_bench_report(const char* schema, const BenchOptions& options,
                           int reps, Json::Array entries);

/// Structural check of a bench document against `schema` (one of the
/// constants above): entries present, speedup columns numeric (and present
/// outside the paper suite), no `*_equivalent` column false, every entry
/// verified identical. Returns "" when valid, else a description.
std::string validate_bench_report(const Json& report,
                                  const std::string& schema);

/// Compares `current` against `baseline`; a circuit missing from
/// `current` is a regression. Paper reports: a t1_/t2_/t3_ delay that
/// differs from the baseline, or such an FF or LUT count above it. Window
/// reports: a period_monolithic or period_windowed that differs from the
/// baseline, or a monolithic_* work counter above it. Summary columns of
/// the same names are gated the same way. Returns human-readable
/// descriptions; empty = no regression.
std::vector<std::string> bench_regressions(const Json& current,
                                           const Json& baseline);

/// Multi-line serialization (one entry per line) so committed bench files
/// diff cleanly; Json::parse round-trips it.
std::string write_bench_report(const Json& report);

}  // namespace mcrt
