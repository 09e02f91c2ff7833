// The shared per-job flow-execution core.
//
// execute_flow_job() is the one place that runs "load a netlist, compile
// the pass pipeline, run it, collect diagnostics/profile/stats, optionally
// write the result atomically" with full failure isolation: every outcome —
// a bad input, a failing or throwing pass, a deadline, a cancelled batch,
// an unwritable output — lands as a structured BulkJobResult, never as an
// escaping exception. The parallel bulk engine (pipeline/bulk_runner.h)
// executes jobs through this entry point.
//
// A job gets its own CancelToken chained onto the caller's (so one poll
// observes both the caller's stop request and the per-job deadline), its
// own diagnostics sink, and — when an output path is set — an atomic
// "<path>.tmp" + rename store so a failed job never leaves a partial file.
// `mcrt flow` and its alias subcommands run their one job through the same
// entry point, streaming the job's diagnostics to stderr as they happen.
//
// A job's record has one persisted encoding, job_to_json(): the bulk
// checkpoint manifest writes one per line.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/cancel.h"
#include "base/json.h"
#include "base/timer.h"
#include "mcretime/mc_retime.h"
#include "netlist/netlist.h"
#include "pipeline/diagnostics.h"
#include "pipeline/pass_manager.h"

namespace mcrt {

/// One unit of flow work: a named input source plus an optional output.
struct BulkJob {
  std::string name;
  /// Produces the job's input netlist. Called on a worker thread; reports
  /// problems to the (job-private) sink and returns std::nullopt on error.
  std::function<std::optional<Netlist>(DiagnosticsSink&)> load;
  std::string input_path;   ///< informational, recorded in the report
  std::string output_path;  ///< empty = don't write the result anywhere
};

/// Reads and validates a BLIF file, reporting the parse error or every
/// validation problem to `diag`; std::nullopt on any of them.
std::optional<Netlist> load_blif_netlist(const std::string& path,
                                         DiagnosticsSink& diag);

/// Loads `input_path` as BLIF (validating), writes to `output_path`.
BulkJob make_file_job(std::string input_path, std::string output_path);
/// Runs on a copy of `netlist`; the result stays in memory
/// (JobExecutionOptions::keep_netlist / BulkOptions::keep_netlists).
BulkJob make_netlist_job(std::string name, Netlist netlist);

/// How one job ended. kCancelled and kIoError are not recorded in
/// checkpoint manifests, so a resumed batch re-runs those jobs.
enum class JobStatus : std::uint8_t {
  kOk,
  kFailed,     ///< deterministic failure (bad input, failing pass, ...)
  kTimeout,    ///< per-job deadline passed
  kCancelled,  ///< caller-wide cancel
  kIoError,    ///< the flow succeeded but its output could not be written
};
[[nodiscard]] const char* job_status_name(JobStatus status) noexcept;
[[nodiscard]] std::optional<JobStatus> job_status_from_name(
    std::string_view name) noexcept;

/// Outcome of one job.
struct BulkJobResult {
  std::string name;
  std::string input_path;
  std::string output_path;
  bool success = false;
  JobStatus status = JobStatus::kFailed;
  bool resumed = false;  ///< restored from a manifest, not executed
  std::string error;  ///< why the job failed (success == false)

  Netlist::Stats before;  ///< stats entering the flow (valid once loaded)
  Netlist::Stats after;   ///< stats leaving the flow (success only)
  std::int64_t period_before = 0;
  std::int64_t period_after = 0;

  /// Passes actually run, with per-pass seconds and summaries.
  std::vector<PassExecution> executed;
  PhaseProfile profile;   ///< per-pass wall clock of this job
  double seconds = 0.0;   ///< whole-job wall clock (load + flow + store)
  std::vector<Diagnostic> diagnostics;  ///< the job's private sink, in order

  /// Statistics of the flow's retime pass, if one ran.
  std::optional<McRetimeStats> retime_stats;
  /// The result netlist (keep_netlist, success only).
  std::optional<Netlist> netlist;
};

/// The persisted form of a job record: everything bulk_job_result_to_json()
/// serializes plus the diagnostics, with exact `seconds` values.
/// PhaseProfile, per-pass netlist stats, retime_stats and the netlist are
/// not persisted.
[[nodiscard]] Json job_to_json(const BulkJobResult& job);
/// Inverse of job_to_json(); std::nullopt when `record` is not a job
/// record (not an object, or no known status).
[[nodiscard]] std::optional<BulkJobResult> job_from_json(const Json& record);

/// Builds a PassManager for one job. Returns false and sets *error on a
/// configuration problem (fails every job identically).
using PipelineBuilder = std::function<bool(PassManager&, std::string*)>;

/// A PipelineBuilder compiling `script` against `registry` (null = the
/// standard registry); the compile error is the build error.
[[nodiscard]] PipelineBuilder script_pipeline(
    std::string script, const PassRegistry* registry = nullptr);

struct JobExecutionOptions {
  PassManagerOptions manager;
  /// Keep the successful result netlist in BulkJobResult::netlist.
  bool keep_netlist = false;
  /// Per-job wall-clock deadline in seconds (0 = none).
  double timeout_seconds = 0;
  /// Caller-wide cancellation (batch ctrl-C). The job chains its deadline
  /// token onto it.
  const CancelToken* cancel = nullptr;
  /// Per-job resource budgets, threaded into the job's FlowContext.
  ResourceBudgets budgets;
};

/// Runs one job start to finish into `out`. Never throws; safe to call
/// concurrently from many threads with distinct `out` slots. Every
/// diagnostic lands in `out.diagnostics`; with a `live` sink it is also
/// forwarded there as it is reported, while the job runs.
void execute_flow_job(const BulkJob& job, const PipelineBuilder& pipeline,
                      const JobExecutionOptions& options, BulkJobResult& out,
                      DiagnosticsSink* live = nullptr);

}  // namespace mcrt
