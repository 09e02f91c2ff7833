// Parallel bulk execution of one flow over many circuits.
//
// A BulkRunner takes a pipeline definition — a flow script (compiled
// per job, since configured Pass instances are stateful) or a programmatic
// PassManager factory — and runs it over N independent jobs on a
// work-stealing ThreadPool. Each job runs through the shared
// execute_flow_job() core (pipeline/job_executor.h) — the same entry point
// `mcrt flow` uses — with its own FlowContext and private
// CollectingDiagnostics sink, so nothing is shared between concurrently
// running flows; per-job results (pass timings, netlist stats and
// register/period deltas, diagnostics) are merged into a BulkReport in job
// order after the pool drains, which makes the aggregate deterministic
// regardless of scheduling.
//
// Failures are isolated per job: a failing (or throwing) pass, an
// unreadable input or an unwritable output marks that job failed and the
// batch carries on. Output files are written atomically — to
// "<path>.tmp", renamed over <path> only once the flow succeeded and the
// write completed — so a failed job never leaves a partial output behind.
//
// BulkReport::to_json() emits the machine-readable report `mcrt bulk
// --report` writes; see docs/PIPELINE.md for the schema. With
// `canonical = true` all wall-clock fields and machine-specific paths are
// dropped, so two runs of the same batch — at any --jobs level, on any
// machine — produce byte-identical reports (the determinism regression
// tests and the golden corpus rely on this).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "base/thread_pool.h"
#include "base/timer.h"
#include "pipeline/diagnostics.h"
#include "pipeline/job_executor.h"
#include "pipeline/pass_manager.h"

namespace mcrt {

struct BulkOptions {
  /// Worker threads; 0 = ThreadPool::default_worker_count().
  std::size_t jobs = 0;
  PassManagerOptions manager;
  /// Keep each successful job's result netlist in BulkJobResult::netlist
  /// (for in-memory pipelines like the bench harnesses).
  bool keep_netlists = false;
  /// Pass registry for script compilation; nullptr = standard().
  const PassRegistry* registry = nullptr;

  // --- resilience ----------------------------------------------------------
  /// Per-job wall-clock deadline in seconds (0 = none). A job over its
  /// deadline unwinds at the next engine poll and reports kTimeout; the
  /// rest of the batch is unaffected.
  double timeout_seconds = 0;
  /// Batch-wide cancellation (e.g. wired to a SIGINT handler). Each job
  /// chains its own deadline token onto this one.
  const CancelToken* cancel = nullptr;
  /// Checkpoint manifest path (empty = no checkpointing). Completed jobs
  /// are appended (and flushed) as they finish, so a killed batch can be
  /// resumed.
  std::string manifest_path;
  /// Skip jobs already recorded in the manifest (same script only); their
  /// recorded results are merged into the report unchanged.
  bool resume = false;
  /// Per-job resource budgets, threaded into each job's FlowContext.
  ResourceBudgets budgets;
};

struct BulkJsonOptions {
  /// Drop wall-clock fields, worker counts, directory components and
  /// machine-/configuration-specific provenance (build type, sanitizers)
  /// so the report is byte-identical across runs, --jobs levels, build
  /// configurations and machines.
  bool canonical = false;
};

struct BulkReport {
  std::string script;       ///< flow script, or "<programmatic>"
  std::size_t jobs = 1;     ///< worker threads used
  double wall_seconds = 0;  ///< batch wall clock
  /// Sum of per-job wall clocks: what a serial run would roughly cost.
  /// cpu_seconds / wall_seconds is the batch's effective speedup.
  double cpu_seconds = 0;
  std::vector<BulkJobResult> results;  ///< input order
  PhaseProfile profile;  ///< per-pass time merged over jobs, in job order
  /// Why the batch did not start (the manifest cannot be opened); no job
  /// ran and `results` is empty. Empty when the batch ran.
  std::string error;
  /// Batch-level warnings, e.g. a --resume manifest written by another
  /// script (every job then re-runs).
  std::vector<std::string> warnings;

  [[nodiscard]] std::size_t succeeded() const;
  [[nodiscard]] std::size_t failed() const;
  [[nodiscard]] double speedup() const {
    return wall_seconds > 0 ? cpu_seconds / wall_seconds : 0.0;
  }
  /// The `mcrt bulk --report` JSON document (schema mcrt-bulk-report/3,
  /// with an embedded provenance block).
  [[nodiscard]] std::string to_json(const BulkJsonOptions& json = {}) const;
};

/// One per-job object of the report's "results" array, exactly as
/// BulkReport::to_json() embeds it (four-space indent, trailing newline
/// handling left to the caller). The fuzz oracles byte-compare serial and
/// bulk runs through it.
[[nodiscard]] std::string bulk_job_result_to_json(const BulkJobResult& result,
                                                  const BulkJsonOptions& json);

class BulkRunner {
 public:
  using PipelineFactory = PipelineBuilder;

  BulkRunner(std::string script, BulkOptions options = {});
  BulkRunner(PipelineFactory factory, BulkOptions options = {});

  /// Script-compilation (or factory) error, checked against a scratch
  /// manager without running anything; std::nullopt when well-formed.
  [[nodiscard]] std::optional<std::string> check() const;

  /// Runs the batch on an internal pool of options.jobs workers, or sets
  /// BulkReport::error and runs nothing when the manifest cannot be opened.
  [[nodiscard]] BulkReport run(const std::vector<BulkJob>& jobs) const;

 private:
  void run_one(const BulkJob& job, BulkJobResult& out) const;

  std::string script_;  ///< the report's script: "<programmatic>" for a factory
  PipelineBuilder pipeline_;
  BulkOptions options_;
};

}  // namespace mcrt
