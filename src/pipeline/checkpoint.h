// Checkpoint manifests for resumable bulk runs.
//
// A manifest is a line-oriented, append-only record of the jobs a bulk run
// has finished: one header line naming the flow script, then one record per
// completed job carrying the report-visible subset of its BulkJobResult
// (status, error, netlist stats, period, executed passes with summaries)
// plus its diagnostics.
// The writer appends and flushes each record as the job finishes, so a
// batch killed at any point — including mid-write — leaves a manifest whose
// complete lines are all trustworthy; the loader silently drops a truncated
// trailing line.
//
// `mcrt bulk --resume` loads the manifest, skips every recorded job, and
// merges the recorded results into the final report verbatim. The record
// carries everything the canonical JSON report needs, so a killed-and-
// resumed batch produces a byte-identical canonical report to an
// uninterrupted run.
//
// Only *final* outcomes are recorded: kOk, kFailed and kTimeout. Jobs
// cancelled by a batch-wide stop (ctrl-C) and jobs whose output write
// failed (kIoError) are deliberately not recorded — they must re-run on
// resume.
//
// Format: the first line is the header {"schema":"mcrt-bulk-manifest/2",
// "script":"<script>"}; every further line is one job record in the shared
// encoding, job_to_json() (pipeline/job_executor.h), written compactly on
// one line. A manifest with another header — including the tab-separated
// "mcrt-bulk-manifest/1" — loads as unreadable, so every job re-runs.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "pipeline/bulk_runner.h"

namespace mcrt {

/// Thread-safe append-and-flush manifest writer.
class ManifestWriter {
 public:
  ManifestWriter() = default;
  ~ManifestWriter() { close(); }
  ManifestWriter(const ManifestWriter&) = delete;
  ManifestWriter& operator=(const ManifestWriter&) = delete;

  /// Opens `path`. With `append` the file is extended (resume), after
  /// ending a truncated trailing line; otherwise it is truncated and a
  /// fresh header naming `script` is written.
  bool open(const std::string& path, const std::string& script, bool append);
  [[nodiscard]] bool is_open() const noexcept { return file_ != nullptr; }

  /// Appends one record and flushes. Safe to call from worker threads.
  void record(const BulkJobResult& result);
  void close();

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
};

struct ManifestData {
  std::string script;
  /// Completed jobs by name, last record winning (a job re-run on resume
  /// appends a fresh record).
  std::map<std::string, BulkJobResult> completed;
};

/// Loads a manifest, tolerating a truncated trailing line. Returns
/// std::nullopt when the file cannot be read or the header is malformed.
[[nodiscard]] std::optional<ManifestData> load_manifest(
    const std::string& path);

}  // namespace mcrt
