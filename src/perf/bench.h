// Benchmark harness: the paper's §6 evidence emitted as a schema-versioned
// JSON document so the results are tracked in-repo (BENCH_paper.json at the
// repo root, regenerated by tools/update_bench_baseline.sh). flowbench/,
// which BENCHMARK.json runs, times the paper's flow end to end and per layer
// on scaled designs.
//
// The paper report holds Tables 1-3, Figs. 1, 4 and 5, the area/period
// trade-off and the class-count ablation on the paper_suite() circuits and
// two fixed-netlist sweeps (src/perf/paper_bench.cpp lists the columns).
// Table 2 and 3 rows are verified sequentially equivalent to their input,
// so a bench run doubles as a coarse-grained differential — `identical` is
// part of the schema and validate_bench_report() rejects documents where
// any entry failed its check.
//
// Regression gating never compares wall-clock, so the committed baseline is
// machine-independent. It gates the Table 1-3 columns (delays exact, FF and
// LUT counts may not rise) and the Fig. 5 relocation attempts, which may not
// rise either.
#pragma once

#include <string>
#include <vector>

#include "base/json.h"

namespace mcrt {

inline constexpr const char* kBenchPaperSchema = "mcrt-bench-paper/1";

struct BenchOptions {
  /// The CI smoke setting; the paper suite is the same in both modes.
  bool quick = false;
};

/// Runs the paper suite; returns a kBenchPaperSchema document.
Json run_paper_bench(const BenchOptions& options);

/// A kBenchPaperSchema document: schema, options, `entries` and a summary
/// with the entry count and whether every entry is identical.
Json assemble_bench_report(const BenchOptions& options, int reps,
                           Json::Array entries);

/// Structural check of a kBenchPaperSchema document: entries present, no
/// `*_equivalent` column false, every entry verified identical. Returns ""
/// when valid, else a description.
std::string validate_bench_report(const Json& report);

/// Compares `current` against `baseline`; a circuit missing from `current`
/// is a regression, as is a t1_/t2_/t3_ delay that differs from the
/// baseline, or such an FF or LUT count or a Fig. 5 attempt count above it.
/// Summary columns of the same names are gated the same way. Returns
/// human-readable descriptions; empty = no regression.
std::vector<std::string> bench_regressions(const Json& current,
                                           const Json& baseline);

/// Multi-line serialization (one entry per line) so committed bench files
/// diff cleanly; Json::parse round-trips it.
std::string write_bench_report(const Json& report);

}  // namespace mcrt
