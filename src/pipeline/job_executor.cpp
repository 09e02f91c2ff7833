#include "pipeline/job_executor.h"

#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "base/strings.h"
#include "blif/blif.h"
#include "pipeline/flow_context.h"
#include "pipeline/flow_script.h"
#include "tech/sta.h"

namespace mcrt {

namespace fs = std::filesystem;

const char* job_status_name(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kIoError: return "io-error";
  }
  return "unknown";
}

std::optional<JobStatus> job_status_from_name(std::string_view name) noexcept {
  if (name == "ok") return JobStatus::kOk;
  if (name == "failed") return JobStatus::kFailed;
  if (name == "timeout") return JobStatus::kTimeout;
  if (name == "cancelled") return JobStatus::kCancelled;
  if (name == "io-error") return JobStatus::kIoError;
  return std::nullopt;
}

std::optional<Netlist> load_blif_netlist(const std::string& path,
                                         DiagnosticsSink& diag) {
  auto parsed = read_blif_file(path);
  if (const auto* err = std::get_if<BlifError>(&parsed)) {
    diag.error(path, str_format("line %zu: %s", err->line,
                                err->message.c_str()));
    return std::nullopt;
  }
  Netlist netlist = std::move(std::get<Netlist>(parsed));
  const auto problems = netlist.validate();
  if (!problems.empty()) {
    for (const std::string& problem : problems) diag.error(path, problem);
    return std::nullopt;
  }
  return netlist;
}

BulkJob make_file_job(std::string input_path, std::string output_path) {
  BulkJob job;
  job.name = fs::path(input_path).stem().string();
  job.input_path = input_path;
  job.output_path = std::move(output_path);
  job.load = [path = std::move(input_path)](DiagnosticsSink& diag) {
    return load_blif_netlist(path, diag);
  };
  return job;
}

BulkJob make_netlist_job(std::string name, Netlist netlist) {
  BulkJob job;
  job.name = std::move(name);
  job.load = [netlist = std::move(netlist)](
                 DiagnosticsSink&) -> std::optional<Netlist> {
    return netlist;
  };
  return job;
}

namespace {

Json stats_to_json(const Netlist::Stats& stats) {
  Json object = Json::object();
  object.set("luts", stats.luts);
  object.set("registers", stats.registers);
  return object;
}

Netlist::Stats stats_from_json(const Json& object) {
  Netlist::Stats stats;
  stats.luts = static_cast<std::size_t>(object.at("luts").as_int(0));
  stats.registers = static_cast<std::size_t>(object.at("registers").as_int(0));
  return stats;
}

/// Collects a job's diagnostics and forwards each one to the caller's live
/// sink, if any, as it is reported.
class JobDiagnostics final : public DiagnosticsSink {
 public:
  explicit JobDiagnostics(DiagnosticsSink* live) : live_(live) {}
  void report(const Diagnostic& diagnostic) override {
    collected.push_back(diagnostic);
    if (live_ != nullptr) live_->report(diagnostic);
  }
  std::vector<Diagnostic> collected;

 private:
  DiagnosticsSink* live_;
};

}  // namespace

Json job_to_json(const BulkJobResult& job) {
  Json object = Json::object();
  object.set("name", job.name);
  object.set("input", job.input_path);
  object.set("output", job.output_path);
  object.set("success", job.success);
  object.set("status", job_status_name(job.status));
  object.set("error", job.error);
  object.set("seconds", job.seconds);
  object.set("before", stats_to_json(job.before));
  object.set("after", stats_to_json(job.after));
  object.set("period_before", job.period_before);
  object.set("period_after", job.period_after);
  Json passes = Json::array();
  for (const PassExecution& pass : job.executed) {
    Json entry = Json::object();
    entry.set("name", pass.name);
    entry.set("seconds", pass.seconds);
    entry.set("success", pass.success);
    entry.set("rolled_back", pass.rolled_back);
    entry.set("summary", pass.summary);
    passes.push_back(std::move(entry));
  }
  object.set("passes", std::move(passes));
  Json diagnostics = Json::array();
  for (const Diagnostic& diag : job.diagnostics) {
    Json entry = Json::object();
    entry.set("severity", diag_severity_name(diag.severity));
    entry.set("origin", diag.origin);
    entry.set("message", diag.message);
    diagnostics.push_back(std::move(entry));
  }
  object.set("diagnostics", std::move(diagnostics));
  return object;
}

std::optional<BulkJobResult> job_from_json(const Json& record) {
  const auto status = job_status_from_name(record.at("status").as_string());
  if (!status) return std::nullopt;
  BulkJobResult job;
  job.status = *status;
  job.name = record.at("name").as_string();
  job.input_path = record.at("input").as_string();
  job.output_path = record.at("output").as_string();
  job.success = record.at("success").as_bool();
  job.error = record.at("error").as_string();
  job.seconds = record.at("seconds").as_number(0);
  job.before = stats_from_json(record.at("before"));
  job.after = stats_from_json(record.at("after"));
  job.period_before = record.at("period_before").as_int(0);
  job.period_after = record.at("period_after").as_int(0);
  for (const Json& entry : record.at("passes").as_array()) {
    PassExecution pass;
    pass.name = entry.at("name").as_string();
    pass.seconds = entry.at("seconds").as_number(0);
    pass.success = entry.at("success").as_bool();
    pass.rolled_back = entry.at("rolled_back").as_bool();
    pass.summary = entry.at("summary").as_string();
    job.executed.push_back(std::move(pass));
  }
  for (const Json& entry : record.at("diagnostics").as_array()) {
    Diagnostic diag;
    const std::string& severity = entry.at("severity").as_string();
    diag.severity = severity == "error"     ? DiagSeverity::kError
                    : severity == "warning" ? DiagSeverity::kWarning
                                            : DiagSeverity::kNote;
    diag.origin = entry.at("origin").as_string();
    diag.message = entry.at("message").as_string();
    job.diagnostics.push_back(std::move(diag));
  }
  return job;
}

PipelineBuilder script_pipeline(std::string script,
                                const PassRegistry* registry) {
  return [script = std::move(script), registry](PassManager& manager,
                                                std::string* error) {
    const auto problem = compile_flow_script(
        script, registry != nullptr ? *registry : PassRegistry::standard(),
        manager);
    if (problem) *error = *problem;
    return !problem;
  };
}

namespace {

/// Writes a result's BLIF `text` to `path` via "<path>.tmp" + rename,
/// creating missing parent directories, so `path` only ever holds a
/// complete output. Returns false with *error set, and no temp file left,
/// on any failure.
bool store_output_atomically(std::string_view text, const std::string& path,
                             std::string* error) {
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);  // best-effort
  }
  const std::string temp = path + ".tmp";
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    *error = "cannot write temp file " + temp;
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  if (std::fclose(file) != 0 || written != text.size()) {
    *error = "cannot write temp file " + temp;
    fs::remove(temp, ec);
    return false;
  }
  fs::rename(temp, target, ec);
  if (ec) {
    *error = "cannot rename " + temp + ": " + ec.message();
    fs::remove(temp, ec);
    return false;
  }
  return true;
}

}  // namespace

void execute_flow_job(const BulkJob& job, const PipelineBuilder& pipeline,
                      const JobExecutionOptions& options, BulkJobResult& out,
                      DiagnosticsSink* live) {
  JobDiagnostics diag(live);
  Timer timer;
  out.name = job.name;
  out.input_path = job.input_path;
  out.output_path = job.output_path;
  out.status = JobStatus::kFailed;
  // Per-job token: chains the caller-wide cancel and arms this job's own
  // deadline, so one poll observes ctrl-C and the timeout alike.
  CancelToken job_cancel(options.cancel);
  if (options.timeout_seconds > 0) {
    job_cancel.set_timeout(options.timeout_seconds);
  }
  // Everything below runs on a worker thread; any escaping exception is
  // this job's failure, never the batch's.
  try {
    if (std::optional<Netlist> input = job.load(diag); !input) {
      out.error = "cannot load input";
    } else {
      PassManager manager(options.manager);
      std::string build_error;
      if (!pipeline(manager, &build_error)) {
        out.error = build_error;
      } else {
        FlowContext context(std::move(*input), &diag);
        context.cancel = &job_cancel;
        context.budgets = options.budgets;
        out.before = context.netlist().stats();
        out.period_before = compute_period(context.netlist());
        FlowResult flow = manager.run(context);
        out.executed = std::move(flow.executed);
        out.profile = std::move(flow.profile);
        if (!flow.success) {
          out.error = flow.error;
          switch (flow.status) {
            case FlowStatus::kTimeout:
              out.status = JobStatus::kTimeout;
              break;
            case FlowStatus::kCancelled:
              out.status = JobStatus::kCancelled;
              break;
            default:
              out.status = JobStatus::kFailed;
          }
        } else {
          out.after = context.netlist().stats();
          out.period_after = compute_period(context.netlist());
          out.retime_stats = context.retime_stats;
          std::string write_error;
          if (!job.output_path.empty() &&
              !store_output_atomically(write_blif_string(context.netlist()),
                                       job.output_path, &write_error)) {
            diag.error(job.output_path, write_error);
            out.error = "cannot write output";
            out.status = JobStatus::kIoError;
          } else {
            if (options.keep_netlist) out.netlist = context.take_netlist();
            out.success = true;
            out.status = JobStatus::kOk;
          }
        }
      }
    }
  } catch (const CancelledError& e) {
    out.success = false;
    out.status = e.reason() == StopReason::kTimeout ? JobStatus::kTimeout
                                                    : JobStatus::kCancelled;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.success = false;
    out.error = str_format("uncaught exception: %s", e.what());
  } catch (...) {
    out.success = false;
    out.error = "uncaught exception";
  }
  out.seconds = timer.seconds();
  out.diagnostics = std::move(diag.collected);
}

}  // namespace mcrt
