#include "pipeline/bulk_runner.h"

#include <filesystem>
#include <utility>

#include "base/strings.h"
#include "base/version.h"
#include "pipeline/checkpoint.h"

namespace mcrt {

namespace fs = std::filesystem;

BulkRunner::BulkRunner(std::string script, BulkOptions options)
    : script_(std::move(script)),
      pipeline_(script_pipeline(script_, options.registry)),
      options_(std::move(options)) {}

BulkRunner::BulkRunner(PipelineFactory factory, BulkOptions options)
    : script_("<programmatic>"),
      pipeline_(std::move(factory)),
      options_(std::move(options)) {}

std::optional<std::string> BulkRunner::check() const {
  PassManager scratch(options_.manager);
  std::string error;
  if (!pipeline_(scratch, &error)) return error;
  return std::nullopt;
}

void BulkRunner::run_one(const BulkJob& job, BulkJobResult& out) const {
  JobExecutionOptions exec;
  exec.manager = options_.manager;
  exec.keep_netlist = options_.keep_netlists;
  exec.timeout_seconds = options_.timeout_seconds;
  exec.cancel = options_.cancel;
  exec.budgets = options_.budgets;
  execute_flow_job(job, pipeline_, exec, out);
}

BulkReport BulkRunner::run(const std::vector<BulkJob>& jobs) const {
  ThreadPool pool(options_.jobs);
  BulkReport report;
  report.script = script_;
  report.jobs = pool.worker_count();
  report.results.resize(jobs.size());

  // Resume: merge recorded results of completed jobs and skip re-running
  // them. A manifest written by a different script is ignored whole — a
  // half-matching resume would silently mix two different flows.
  std::vector<bool> skip(jobs.size(), false);
  bool append_manifest = false;
  if (options_.resume && !options_.manifest_path.empty()) {
    if (const auto manifest = load_manifest(options_.manifest_path)) {
      if (manifest->script == report.script) {
        append_manifest = true;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          const auto it = manifest->completed.find(jobs[i].name);
          if (it == manifest->completed.end()) continue;
          report.results[i] = it->second;
          skip[i] = true;
        }
      } else {
        report.warnings.push_back("manifest " + options_.manifest_path +
                                  " was written by a different script; "
                                  "re-running every job");
      }
    }
  }
  ManifestWriter manifest;
  if (!options_.manifest_path.empty() &&
      !manifest.open(options_.manifest_path, report.script,
                     append_manifest)) {
    report.results.clear();
    report.error = "cannot open manifest " + options_.manifest_path;
    return report;
  }

  Timer wall;
  {
    TaskGroup group(pool);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (skip[i]) continue;
      // Distinct result slots: no synchronization beyond the group's join.
      group.run([this, &jobs, &report, &manifest, i] {
        BulkJobResult& slot = report.results[i];
        run_one(jobs[i], slot);
        // Journal final outcomes only: a cancelled job, or one whose output
        // write failed, must re-run on resume.
        if (slot.status == JobStatus::kOk ||
            slot.status == JobStatus::kFailed ||
            slot.status == JobStatus::kTimeout) {
          manifest.record(slot);
        }
      });
    }
    group.wait();
  }
  report.wall_seconds = wall.seconds();

  // Deterministic post-join aggregation, in input order.
  for (const BulkJobResult& result : report.results) {
    report.cpu_seconds += result.seconds;
    report.profile.merge(result.profile);
  }
  return report;
}

std::size_t BulkReport::succeeded() const {
  std::size_t n = 0;
  for (const BulkJobResult& r : results) n += r.success ? 1 : 0;
  return n;
}

std::size_t BulkReport::failed() const { return results.size() - succeeded(); }

namespace {

std::string quoted(const std::string& text) {
  return "\"" + json_escape(text) + "\"";
}

/// Directory components are machine-specific; canonical reports keep only
/// the file name.
std::string report_path(const std::string& path, bool canonical) {
  if (!canonical || path.empty()) return path;
  return fs::path(path).filename().string();
}

void append_stats(std::string& out, const char* key,
                  const Netlist::Stats& stats, std::int64_t period) {
  out += str_format(
      "      \"%s\": {\"luts\": %zu, \"registers\": %zu, \"period\": %lld}",
      key, stats.luts, stats.registers, static_cast<long long>(period));
}

/// The report's "provenance" object: always tool + version + report
/// schema; build type and sanitizer flags only when `canonical` is false
/// (they vary across CI configurations).
std::string provenance_json(bool canonical) {
  std::string out = str_format(
      "{\"tool\": \"mcrt\", \"version\": \"%s\", \"report_schema\": 3",
      version_string());
  if (!canonical) {
    out += str_format(", \"build_type\": %s",
                      quoted(build_type()).c_str());
    out += ", \"sanitizers\": [";
    bool first = true;
    for (const std::string& flag : sanitizer_flags()) {
      if (!first) out += ", ";
      first = false;
      out += quoted(flag);
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace

std::string bulk_job_result_to_json(const BulkJobResult& r,
                                    const BulkJsonOptions& json) {
  const bool canonical = json.canonical;
  std::string out;
  out += "    {\n";
  out += "      \"name\": " + quoted(r.name) + ",\n";
  out += "      \"input\": " + quoted(report_path(r.input_path, canonical)) +
         ",\n";
  out += "      \"output\": " +
         quoted(report_path(r.output_path, canonical)) + ",\n";
  out += str_format("      \"success\": %s,\n",
                    r.success ? "true" : "false");
  out += "      \"status\": " + quoted(job_status_name(r.status)) + ",\n";
  out += "      \"error\": " + quoted(r.error) + ",\n";
  if (!canonical) out += str_format("      \"seconds\": %.6f,\n", r.seconds);
  append_stats(out, "before", r.before, r.period_before);
  out += ",\n";
  append_stats(out, "after", r.after, r.period_after);
  out += ",\n";
  const auto delta = [](std::size_t before, std::size_t after) {
    return static_cast<long long>(after) - static_cast<long long>(before);
  };
  out += str_format(
      "      \"delta\": {\"luts\": %lld, \"registers\": %lld, "
      "\"period\": %lld},\n",
      delta(r.before.luts, r.after.luts),
      delta(r.before.registers, r.after.registers),
      static_cast<long long>(r.period_after - r.period_before));
  out += "      \"passes\": [";
  for (std::size_t p = 0; p < r.executed.size(); ++p) {
    const PassExecution& e = r.executed[p];
    if (p != 0) out += ", ";
    out += "{\"name\": " + quoted(e.name);
    if (!canonical) out += str_format(", \"seconds\": %.6f", e.seconds);
    out += str_format(", \"success\": %s", e.success ? "true" : "false");
    if (e.rolled_back) out += ", \"rolled_back\": true";
    out += ", \"summary\": " + quoted(e.summary) + "}";
  }
  out += "]\n";
  out += "    }";
  return out;
}

std::string BulkReport::to_json(const BulkJsonOptions& json) const {
  const bool canonical = json.canonical;
  std::string out = "{\n";
  out += "  \"schema\": \"mcrt-bulk-report/3\",\n";
  out += "  \"provenance\": " + provenance_json(canonical) + ",\n";
  out += "  \"script\": " + quoted(script) + ",\n";
  if (!canonical) out += str_format("  \"jobs\": %zu,\n", jobs);
  out += str_format("  \"circuits\": %zu,\n", results.size());
  out += str_format("  \"succeeded\": %zu,\n", succeeded());
  out += str_format("  \"failed\": %zu,\n", failed());
  if (!canonical) {
    out += str_format("  \"wall_seconds\": %.6f,\n", wall_seconds);
    out += str_format("  \"cpu_seconds\": %.6f,\n", cpu_seconds);
    out += str_format("  \"speedup\": %.2f,\n", speedup());
    out += "  \"profile\": [";
    bool first = true;
    for (const std::string& phase : profile.phases()) {
      if (!first) out += ", ";
      first = false;
      out += str_format("{\"pass\": %s, \"seconds\": %.6f}",
                        quoted(phase).c_str(), profile.seconds(phase));
    }
    out += "],\n";
  }
  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += bulk_job_result_to_json(results[i], json);
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace mcrt
