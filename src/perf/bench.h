// Benchmark harness: pinned workload suites emitted as schema-versioned
// JSON so the perf trajectory is tracked in-repo (BENCH_window.json and
// BENCH_cslow.json at the repo root, regenerated by
// tools/update_bench_baseline.sh). The paper's end-to-end flow is measured
// separately, by the flowbench/ package that BENCHMARK.json runs.
//
// Two reports:
//  - window: retime_windowed's label solve vs the monolithic minperiod
//    solver on workload::scaled_profile designs (BENCH_window.json). Small
//    entries run the monolithic solver to completion and record its
//    period and deterministic work counters (monolithic_feas_probes,
//    _feas_rounds, _dc_relaxations, _wd_sweeps; see RetimeWorkCounters);
//    the headline >= 1e5-gate entry caps the monolithic run with a
//    deadline (it is intractable there — the point of windowing) and
//    records the speedup as a lower bound with monolithic_capped=true.
//    Entries also record the period quality gap vs the monolithic optimum
//    where it is known.
//  - cslow: retime(cslow=C) throughput on the workload suite plus the
//    register-class zoo and the dual-clock rig, C in {2, 3}
//    (BENCH_cslow.json). The speedup column is a *period ratio*, not
//    wall-clock: aggregate throughput of the C-slowed design is 1/T_c
//    stream-steps per second vs the monolithic 1/T_mono, so
//    speedup_throughput = T_mono / T_c (<= C by construction, >= 1 by
//    register-slack dominance). Period ratios are solver outputs —
//    deterministic and machine-independent — so the committed baseline
//    gates them exactly. Each entry is verified by the stream-equivalence
//    checker (multi-clock entries record the documented skip instead).
//    Entries that cannot recover throughput are classified by certificate
//    — floor_bound (combinational PI->PO or control-cone floor),
//    class_bound (a control-stripped single-class relaxation beats the
//    real solve: the §4 class constraints withheld the gain) or
//    interface_bound (the relaxation ties: only interface-crossing
//    peripheral retiming could do better) — and excluded from the
//    headline geomean, which measures the recoverable rest.
//
// Every entry is also *verified* (legal stitched labels and period
// dominance for window; stream equivalence and the period floor for
// cslow), so a bench run doubles as a coarse-grained differential —
// `identical` is part of the schema and validate_bench_report() rejects
// documents where any entry failed its check.
//
// Regression gating never compares wall-clock, so the committed baselines
// are machine-independent. The window suite is gated on exact periods and
// on its work counters, which may not rise; its wall-clock speedup is
// reported only, because it shrinks whenever the monolithic solver gets
// faster. The cslow ratios are deterministic solver outputs and are gated
// as ratios.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.h"

namespace mcrt {

inline constexpr const char* kBenchWindowSchema = "mcrt-bench-window/1";
inline constexpr const char* kBenchCslowSchema = "mcrt-bench-cslow/1";

struct BenchOptions {
  /// Trimmed circuit list and fewer repetitions; the CI smoke setting.
  bool quick = false;
  /// Seed for workload::random_suite, the scaled designs and the stream
  /// stimulus.
  std::uint64_t seed = 1;
};

/// Runs the windowed-vs-monolithic retiming benchmark; returns a
/// kBenchWindowSchema document. Quick mode keeps the uncapped entries only
/// (minutes -> seconds); the full run adds the capped 1e5-gate headline.
Json run_window_bench(const BenchOptions& options);

/// Runs the C-slow throughput benchmark; returns a kBenchCslowSchema
/// document whose summary carries `geomean_speedup_throughput_c2`, the
/// headline aggregate-throughput multiplier at C=2 (contract: >= 1.5).
Json run_cslow_bench(const BenchOptions& options);

/// Structural check of a bench document against `schema` (one of the
/// constants above): entries present, speedup columns numeric, every entry
/// verified identical. Returns "" when valid, else a description.
std::string validate_bench_report(const Json& report,
                                  const std::string& schema);

/// Compares `current` against `baseline`; a circuit missing from
/// `current` is a regression. Window reports: a period_monolithic or
/// period_windowed that differs from the baseline, or a monolithic_*
/// work counter above it. Other reports: any speedup column (per circuit
/// or in the summary) below baseline * (1 - max_regress). Returns
/// human-readable descriptions; empty = no regression.
std::vector<std::string> bench_regressions(const Json& current,
                                           const Json& baseline,
                                           double max_regress);

/// Multi-line serialization (one entry per line) so committed bench files
/// diff cleanly; Json::parse round-trips it.
std::string write_bench_report(const Json& report);

}  // namespace mcrt
