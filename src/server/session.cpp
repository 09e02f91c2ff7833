#include "server/session.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "base/strings.h"
#include "blif/blif.h"
#include "netlist/structural_hash.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/job_executor.h"
#include "server/server.h"

namespace mcrt {

namespace fs = std::filesystem;

namespace {

/// The job identity a request asked for: explicit name, else path stem,
/// else the request id.
std::string job_name_for(const JobRequest& request) {
  if (!request.name.empty()) return request.name;
  if (!request.path.empty()) return fs::path(request.path).stem().string();
  return request.id;
}

}  // namespace

Session::Session(RetimingServer& server, SocketStream stream, std::uint64_t id)
    : server_(server),
      stream_(std::move(stream)),
      id_(id),
      group_(server.pool()),
      cancel_(server.stop_token()) {}

Session::~Session() { join(); }

void Session::start() {
  (void)send_frame(make_hello_frame(server_.pool().worker_count()));
  reader_ = std::thread([this] { reader_loop(); });
}

void Session::initiate_shutdown() {
  cancel_.request_cancel();
  {
    std::lock_guard<std::mutex> lock(requests_mutex_);
    for (auto& [id, token] : active_) token->request_cancel();
  }
  stream_.shutdown();
}

void Session::join() {
  if (reader_.joinable()) reader_.join();
}

void Session::reader_loop() {
  while (!cancel_.stopped()) {
    bool overflow = false;
    std::optional<std::string> line =
        stream_.read_line(server_.options().max_frame_bytes, &overflow);
    if (!line) break;  // disconnect (or shutdown) ends the conversation
    if (overflow) {
      // The oversized line was discarded through its newline, so the
      // stream is still frame-aligned and the connection stays usable.
      const std::string message = str_format(
          "frame exceeds %zu bytes", server_.options().max_frame_bytes);
      server_.log_note(str_format("session %llu",
                                  static_cast<unsigned long long>(id_)),
                       "protocol error: " + message);
      if (!send_frame(make_error_frame("", message))) break;
      continue;
    }
    if (line->empty()) continue;
    auto parsed = parse_request_frame(*line);
    if (const auto* error = std::get_if<std::string>(&parsed)) {
      server_.log_note(str_format("session %llu",
                                  static_cast<unsigned long long>(id_)),
                       "protocol error: " + *error);
      if (!send_frame(make_error_frame("", *error))) break;
      continue;
    }
    handle_frame(std::get<RequestFrame>(parsed));
  }
  // The client is gone (or the server is stopping): whatever this
  // connection still has in flight is abandoned work — cancel it, then
  // drain so no job outlives its session.
  {
    std::lock_guard<std::mutex> lock(requests_mutex_);
    for (auto& [id, token] : active_) token->request_cancel();
  }
  group_.wait();
  finished_.store(true, std::memory_order_release);
}

void Session::handle_frame(const RequestFrame& frame) {
  switch (frame.kind) {
    case RequestFrame::Kind::kHello:
      (void)send_frame(make_hello_frame(server_.pool().worker_count()));
      return;
    case RequestFrame::Kind::kStats: {
      const std::optional<DiskCacheStats> disk = server_.disk_cache_stats();
      const AdmissionStats admission = server_.admission().stats();
      (void)send_frame(make_stats_frame(server_.stats(),
                                        server_.cache_stats(),
                                        disk ? &*disk : nullptr, &admission));
      return;
    }
    case RequestFrame::Kind::kHealth:
      (void)send_frame(make_health_frame(server_.admission().stats(),
                                         server_.pool().worker_count()));
      return;
    case RequestFrame::Kind::kDrain:
      server_.admission().begin_drain();
      server_.log_note(str_format("session %llu",
                                  static_cast<unsigned long long>(id_)),
                       "drain requested");
      (void)send_frame(
          make_drain_ack_frame(server_.admission().inflight()));
      return;
    case RequestFrame::Kind::kShutdown:
      if (server_.options().allow_remote_shutdown) {
        (void)send_frame(make_bye_frame());
        server_.request_stop();
      } else {
        (void)send_frame(make_error_frame("", "shutdown is disabled"));
      }
      return;
    case RequestFrame::Kind::kCancel: {
      std::shared_ptr<CancelToken> token;
      {
        std::lock_guard<std::mutex> lock(requests_mutex_);
        auto it = active_.find(frame.cancel_id);
        if (it != active_.end()) token = it->second;
      }
      if (token != nullptr) token->request_cancel();
      (void)send_frame(make_cancel_ack_frame(frame.cancel_id,
                                             token != nullptr));
      return;
    }
    case RequestFrame::Kind::kJob: {
      const AdmissionController::Decision admit =
          server_.admission().try_admit(frame.job.tenant);
      if (!admit.admitted) {
        server_.note_busy();
        (void)send_frame(make_busy_frame(frame.job.id, admit.retry_after_ms,
                                         admit.reason));
        return;
      }
      auto token = std::make_shared<CancelToken>(&cancel_);
      if (!register_request(frame.job.id, token)) {
        server_.admission().release(frame.job.tenant);
        return;
      }
      server_.note_job_accepted();
      (void)send_frame(make_accepted_frame(frame.job.id));
      group_.run([this, request = frame.job, token]() mutable {
        run_job(std::move(request), std::move(token));
      });
      return;
    }
  }
}

bool Session::register_request(const std::string& id,
                               const std::shared_ptr<CancelToken>& token) {
  {
    std::lock_guard<std::mutex> lock(requests_mutex_);
    if (!active_.emplace(id, token).second) {
      (void)send_frame(
          make_error_frame(id, "request id '" + id + "' is already in flight"));
      return false;
    }
  }
  return true;
}

void Session::unregister_request(const std::string& id) {
  std::lock_guard<std::mutex> lock(requests_mutex_);
  active_.erase(id);
}

void Session::run_job(JobRequest request, std::shared_ptr<CancelToken> token) {
  // The admission slot claimed in handle_frame is held for the whole job;
  // every path below ends in exactly one finish_job(), which releases it.
  const std::string name = job_name_for(request);
  BulkJobResult result;
  result.name = name;
  result.input_path = request.path.empty() ? "<inline>" : request.path;
  result.output_path = request.output;

  // Load + validate up front (the daemon hashes the parsed netlist for the
  // cache before deciding whether to execute at all).
  CollectingDiagnostics load_diag;
  std::optional<Netlist> input;
  {
    auto parsed = request.path.empty() ? read_blif_string(request.blif)
                                       : read_blif_file(request.path);
    const std::string& origin = request.path.empty() ? name : request.path;
    if (const auto* err = std::get_if<BlifError>(&parsed)) {
      load_diag.error(origin, str_format("line %zu: %s", err->line,
                                         err->message.c_str()));
    } else {
      input = std::move(std::get<Netlist>(parsed));
      const auto problems = input->validate();
      if (!problems.empty()) {
        for (const std::string& problem : problems) {
          load_diag.error(origin, problem);
        }
        input.reset();
      }
    }
  }
  if (!input) {
    result.error = "cannot load input";
    result.status = JobStatus::kFailed;
    result.diagnostics = load_diag.diagnostics();
    finish_job(request, result, /*cached=*/false, nullptr);
    unregister_request(request.id);
    return;
  }

  const ServerOptions& server_options = server_.options();
  PassManagerOptions manager = server_options.manager;
  manager.check_invariants = request.options.validate;
  manager.check_equivalence = request.options.verify;
  ResourceBudgets budgets = server_options.budgets;
  if (request.options.budgets.bdd_node_cap != 0) {
    budgets.bdd_node_cap = request.options.budgets.bdd_node_cap;
  }
  if (request.options.budgets.bmc_step_cap != 0) {
    budgets.bmc_step_cap = request.options.budgets.bmc_step_cap;
  }
  if (request.options.budgets.max_rss_bytes != 0) {
    budgets.max_rss_bytes = request.options.budgets.max_rss_bytes;
  }

  CacheKey key{structural_hash(*input),
               flow_options_hash(request.script, manager, budgets)};
  if (auto cached = server_.cache_lookup(key, token.get())) {
    serve_cached(request, std::move(*cached));
    unregister_request(request.id);
    return;
  }

  // Coalesce identical in-flight work: if another request is already
  // executing this exact (netlist, flow) key, wait for it and serve its
  // freshly cached result instead of burning a second execution. A
  // follower can only block while its leader holds a pool thread, so no
  // circular wait is possible. A leader whose run fails (nothing cached)
  // wakes the followers to race for the lead themselves.
  bool counted_coalesced = false;
  for (;;) {
    std::shared_ptr<CoalescedExecution> leader = server_.try_lead(key);
    if (leader == nullptr) {
      // We lead — but a previous leader may have finished between our
      // cache miss and now, so close that race before executing. The
      // request's miss was already counted; this re-check is silent.
      if (auto cached = server_.cache_lookup(key, token.get(),
                                             /*count_miss=*/false)) {
        server_.finish_lead(key);
        serve_cached(request, std::move(*cached));
        unregister_request(request.id);
        return;
      }
      break;
    }
    if (!counted_coalesced) {
      server_.note_coalesced();
      counted_coalesced = true;
    }
    {
      std::unique_lock<std::mutex> lock(leader->mutex);
      while (!leader->done &&
             cancel_requested(token.get()) == StopReason::kNone) {
        leader->cv.wait_for(lock, std::chrono::milliseconds(50));
      }
    }
    if (auto cached = server_.cache_lookup(key, token.get(),
                                           /*count_miss=*/false)) {
      serve_cached(request, std::move(*cached));
      unregister_request(request.id);
      return;
    }
    // Leader failed or we were cancelled: loop to lead (a cancelled run
    // unwinds via the executor's first poll immediately).
  }

  // Cache miss: run the request through the shared flow-execution core —
  // the exact path `mcrt bulk` takes.
  BulkJob job;
  job.name = name;
  job.input_path = result.input_path;
  job.output_path = request.output;
  // Validation already happened above; re-running it in load would double
  // every diagnostic.
  job.load = [netlist = std::move(*input)](
                 DiagnosticsSink&) -> std::optional<Netlist> {
    return netlist;
  };

  JobExecutionOptions exec;
  exec.manager = manager;
  exec.keep_netlist = true;
  exec.timeout_seconds = request.options.timeout_seconds > 0
                             ? request.options.timeout_seconds
                             : server_options.default_timeout_seconds;
  exec.cancel = token.get();
  exec.budgets = budgets;
  exec.faults = server_options.faults;

  execute_flow_job(job,
                   script_pipeline(request.script, server_options.registry),
                   exec, result);

  std::optional<std::string> blif_text;
  if (result.netlist.has_value()) {
    blif_text = write_blif_string(*result.netlist);
  }
  // Insert before the terminal frame goes out (same ordering rule as the
  // counters): a client that has seen its result must observe the entry.
  if (result.status == JobStatus::kOk && blif_text.has_value()) {
    CachedResult entry;
    entry.job = result;
    entry.job.netlist.reset();  // the BLIF text is the compact form
    entry.blif = *blif_text;
    server_.cache_insert(key, std::move(entry), token.get());
  }
  // Wake coalesced followers only after the insert: they re-check the
  // cache and must observe this result (or, on failure, race to lead).
  server_.finish_lead(key);
  finish_job(request, result, /*cached=*/false,
             blif_text ? &*blif_text : nullptr);
  unregister_request(request.id);
}

void Session::serve_cached(const JobRequest& request, CachedResult cached) {
  // Re-stamp the cached record with this request's identity: the payload
  // (stats, passes, diagnostics, BLIF bytes) is identical by construction,
  // but name and paths belong to the requester.
  cached.job.name = job_name_for(request);
  cached.job.input_path = request.path.empty() ? "<inline>" : request.path;
  cached.job.output_path = request.output;
  if (!request.output.empty()) {
    std::string error;
    if (!store_output_atomically(cached.blif, request.output,
                                 server_.faults(), &cancel_, &error)) {
      cached.job.success = false;
      cached.job.status = JobStatus::kIoError;
      cached.job.error = "cannot write output";
      cached.job.diagnostics.push_back(
          Diagnostic{DiagSeverity::kError, request.output, error});
      // A failed write is this request's failure, not the cache's: the
      // entry itself stays valid for the next hit.
      finish_job(request, cached.job, /*cached=*/true, nullptr);
      return;
    }
  }
  finish_job(request, cached.job, /*cached=*/true, &cached.blif);
}

void Session::finish_job(const JobRequest& request,
                         const BulkJobResult& result, bool cached,
                         const std::string* blif) {
  for (const Diagnostic& diag : result.diagnostics) {
    if (!send_frame(make_diagnostic_frame(request.id, diag))) break;
  }
  BulkJsonOptions json;
  json.canonical = request.options.canonical;
  const std::string job_json = bulk_job_result_to_json(result, json);
  // Count and release the admission slot before the terminal frame goes
  // out: a client that has seen its result must never read stats that
  // don't include it, nor see it still in flight.
  server_.note_job_finished(result.status, cached);
  server_.admission().release(request.tenant);
  (void)send_frame(make_result_frame(
      request.id, result, cached, job_json,
      request.options.return_blif ? blif : nullptr));
}

bool Session::send_frame(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return stream_.write_line(line);
}

}  // namespace mcrt
