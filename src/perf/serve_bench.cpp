#include "perf/serve_bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/fault_injector.h"
#include "base/socket.h"
#include "base/strings.h"
#include "blif/blif.h"
#include "perf/bench.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/job_executor.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/generator.h"

namespace mcrt {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kScript = "sweep; strash; retime(d=10)";

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

double percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(fraction * static_cast<double>(values.size())));
  return values[index];
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// One synthetic circuit plus its `mcrt bulk`-path reference: the canonical
/// per-job JSON and output BLIF that a correct daemon response must match
/// byte-for-byte.
struct Reference {
  std::string name;
  std::string blif_in;
  bool ok = false;
  std::string job_json;  ///< canonical bulk_job_result_to_json
  std::string blif_out;  ///< write_blif_string of the result
};

/// Executes one circuit through execute_flow_job() — the exact code path
/// `mcrt bulk` uses — with the same options the daemon applies to a
/// default-options request.
Reference build_reference(const std::string& name, const Netlist& circuit) {
  Reference ref;
  ref.name = name;
  ref.blif_in = write_blif_string(circuit);

  // The daemon parses the wire BLIF; the reference must execute the same
  // parsed netlist, not the generator's original.
  auto parsed = read_blif_string(ref.blif_in);
  if (std::holds_alternative<BlifError>(parsed)) return ref;

  BulkJob job;
  job.name = name;
  job.input_path = "<inline>";  // the daemon's identity for inline BLIF
  job.load = [netlist = std::move(std::get<Netlist>(parsed))](
                 DiagnosticsSink&) -> std::optional<Netlist> {
    return netlist;
  };

  JobExecutionOptions exec;
  exec.manager.check_invariants = true;
  exec.manager.check_equivalence = false;
  exec.keep_netlist = true;

  BulkJobResult result;
  execute_flow_job(job, script_pipeline(kScript), exec, result);
  if (result.status != JobStatus::kOk || !result.netlist.has_value()) {
    return ref;
  }
  BulkJsonOptions json;
  json.canonical = true;
  ref.job_json = bulk_job_result_to_json(result, json);
  ref.blif_out = write_blif_string(*result.netlist);
  ref.ok = true;
  return ref;
}

std::vector<Reference> build_references(const std::string& prefix,
                                        std::size_t count,
                                        std::uint64_t seed) {
  std::vector<Reference> refs;
  for (const CircuitProfile& profile : random_suite(count, seed)) {
    refs.push_back(build_reference(prefix + profile.name,
                                   generate_circuit(profile)));
  }
  return refs;
}

/// An in-process daemon on an ephemeral loopback port with its accept loop
/// on a background thread.
class BenchServer {
 public:
  bool start(ServerOptions options, std::string* error) {
    server_ = std::make_unique<RetimingServer>(std::move(options));
    if (!server_->start(error)) {
      server_.reset();
      return false;
    }
    endpoint_ = server_->bound_endpoint();
    runner_ = std::thread([this] { server_->run(); });
    return true;
  }

  void stop() {
    if (server_ != nullptr) server_->request_stop();
    if (runner_.joinable()) runner_.join();
    server_.reset();
  }

  ~BenchServer() { stop(); }

  [[nodiscard]] const SocketEndpoint& endpoint() const { return endpoint_; }

 private:
  std::unique_ptr<RetimingServer> server_;
  std::thread runner_;
  SocketEndpoint endpoint_;
};

JobRequest request_for(const Reference& ref, std::size_t serial) {
  JobRequest request;
  request.id = str_format("q%zu", serial);
  request.name = ref.name;
  request.blif = ref.blif_in;
  request.script = kScript;
  request.options.canonical = true;
  request.options.return_blif = true;
  return request;
}

/// Cache-tier counters snapshotted from a {"stats"} round-trip.
struct TierCounters {
  double mem_hits = 0;
  double disk_hits = 0;
  double quarantined = 0;
  bool ok = false;
};

TierCounters query_tiers(const SocketEndpoint& endpoint) {
  TierCounters counters;
  ServeClient client;
  std::string error;
  if (!client.connect(endpoint, &error)) return counters;
  const std::optional<Json> stats = client.query_stats(&error);
  if (!stats) return counters;
  counters.mem_hits = stats->at("cache").at("hits").as_number(0);
  counters.disk_hits = stats->at("disk").at("hits").as_number(0);
  counters.quarantined = stats->at("disk").at("quarantined").as_number(0);
  counters.ok = true;
  client.close();
  return counters;
}

/// One traffic pass: each reference submitted once (sequentially, so the
/// per-request latency is clean), every successful response byte-compared
/// against its reference.
struct PassOutcome {
  std::vector<double> latencies_ms;
  std::size_t requests = 0;
  std::uint64_t corrupt = 0;   ///< responses that diverged from the reference
  std::uint64_t failed = 0;    ///< responses that did not succeed
};

PassOutcome run_pass(const SocketEndpoint& endpoint,
                     const std::vector<Reference>& refs,
                     std::size_t* serial) {
  PassOutcome outcome;
  ServeClient client;
  std::string error;
  if (!client.connect(endpoint, &error)) {
    outcome.failed = refs.size();
    return outcome;
  }
  for (const Reference& ref : refs) {
    if (!ref.ok) continue;
    const JobRequest request = request_for(ref, (*serial)++);
    const Clock::time_point begin = Clock::now();
    std::vector<ClientJobResult> results;
    if (!client.submit(request) || !client.collect(&results, &error)) {
      ++outcome.failed;
      continue;
    }
    outcome.latencies_ms.push_back(ms_since(begin));
    ++outcome.requests;
    const auto it =
        std::find_if(results.begin(), results.end(),
                     [&](const ClientJobResult& r) { return r.id == request.id; });
    if (it == results.end() || !it->success) {
      ++outcome.failed;
      continue;
    }
    // The crash-safety differential: a served result must be byte-identical
    // to what `mcrt bulk` produces — anything else is a corrupt result.
    if (it->job_json != ref.job_json || it->blif != ref.blif_out) {
      ++outcome.corrupt;
    }
  }
  client.close();
  return outcome;
}

/// Clients that submit work and slam the connection shut, racing the
/// measured traffic; the daemon must cancel their jobs and keep serving.
void run_connection_drops(const SocketEndpoint& endpoint,
                          const std::vector<Reference>& refs,
                          std::size_t* serial) {
  for (const Reference& ref : refs) {
    if (!ref.ok) continue;
    ServeClient client;
    std::string error;
    if (!client.connect(endpoint, &error)) continue;
    (void)client.submit(request_for(ref, (*serial)++));
    client.close();  // gone before the result: the daemon cancels the job
  }
}

Json phase_entry(const std::string& phase, const PassOutcome& cold,
                 const PassOutcome& warm, double wall_seconds,
                 const TierCounters& before, const TierCounters& after) {
  std::vector<double> all = cold.latencies_ms;
  all.insert(all.end(), warm.latencies_ms.begin(), warm.latencies_ms.end());
  const std::size_t requests = cold.requests + warm.requests;

  Json entry = Json::object();
  entry.set("circuit", phase);
  entry.set("requests", requests);
  entry.set("speedup_warm_vs_cold",
            median(cold.latencies_ms) /
                std::max(median(warm.latencies_ms), 1e-9));
  entry.set("cold_p50_ms", median(cold.latencies_ms));
  entry.set("warm_p50_ms", median(warm.latencies_ms));
  entry.set("p99_ms", percentile(all, 0.99));
  entry.set("throughput_rps",
            static_cast<double>(requests) / std::max(wall_seconds, 1e-9));
  if (before.ok && after.ok && requests > 0) {
    entry.set("mem_hit_ratio", (after.mem_hits - before.mem_hits) /
                                   static_cast<double>(requests));
    entry.set("disk_hit_ratio", (after.disk_hits - before.disk_hits) /
                                    static_cast<double>(requests));
    entry.set("quarantined", after.quarantined - before.quarantined);
  }
  entry.set("identical", cold.corrupt + warm.corrupt + cold.failed +
                                 warm.failed ==
                             0);
  return entry;
}

/// Flips one byte in the middle of the lexicographically first disk-cache
/// entry — simulated bit rot for the restart phase's recovery scan.
bool corrupt_one_entry(const std::string& dir) {
  std::vector<std::string> entries;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 6 && name.substr(name.size() - 6) == ".entry") {
      entries.push_back(entry.path().string());
    }
  }
  if (entries.empty()) return false;
  std::sort(entries.begin(), entries.end());
  FILE* file = std::fopen(entries.front().c_str(), "r+b");
  if (file == nullptr) return false;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  if (size > 1) {
    std::fseek(file, size / 2, SEEK_SET);
    const int byte = std::fgetc(file);
    std::fseek(file, size / 2, SEEK_SET);
    std::fputc((byte ^ 0x40) & 0xff, file);
  }
  std::fclose(file);
  return size > 1;
}

}  // namespace

Json run_serve_bench(const ServeBenchOptions& options, DiagnosticsSink* log) {
  const std::string work =
      options.work_dir.empty() ? std::string("loadtest_work")
                               : options.work_dir;
  std::error_code ec;
  fs::create_directories(work, ec);
  const std::string disk_main = work + "/disk_cache";
  const std::string disk_faulty = work + "/disk_cache_faulty";
  fs::remove_all(disk_main, ec);
  fs::remove_all(disk_faulty, ec);

  const std::size_t per_set = options.quick ? 3 : 6;
  const std::vector<Reference> set_clean =
      build_references("clean_", per_set, options.seed);
  const std::vector<Reference> set_drops =
      build_references("drops_", per_set, options.seed + 100);
  const std::vector<Reference> set_faults =
      build_references("fault_", per_set, options.seed + 200);
  const std::vector<Reference> set_fresh =
      build_references("fresh_", options.quick ? 2 : 3, options.seed + 300);
  const std::vector<Reference> set_chaff =
      build_references("chaff_", options.quick ? 2 : 3, options.seed + 400);

  std::size_t serial = 0;
  Json::Array entries;
  std::uint64_t corrupt_served = 0;
  double restart_disk_hit_ratio = 0;
  // The clean phase's cold execute latencies over set_clean: the restart
  // phase serves the same circuits from the recovered disk tier, so this is
  // the apples-to-apples "what the tier saved" reference.
  std::vector<double> clean_cold_ms;

  // --- phases "clean" and "drops": one daemon, warm disk tier ------------
  {
    BenchServer daemon;
    ServerOptions server_options;
    server_options.endpoint.tcp_port = 0;  // ephemeral loopback
    server_options.disk_cache_dir = disk_main;
    server_options.log = log;
    std::string error;
    if (!daemon.start(std::move(server_options), &error)) {
      Json report = Json::object();
      report.set("schema", kBenchServeSchema);
      report.set("error", "cannot start daemon: " + error);
      return report;
    }

    {
      const TierCounters before = query_tiers(daemon.endpoint());
      const Clock::time_point begin = Clock::now();
      const PassOutcome cold = run_pass(daemon.endpoint(), set_clean, &serial);
      const PassOutcome warm = run_pass(daemon.endpoint(), set_clean, &serial);
      const TierCounters after = query_tiers(daemon.endpoint());
      corrupt_served += cold.corrupt + warm.corrupt;
      clean_cold_ms = cold.latencies_ms;
      entries.push_back(phase_entry("clean", cold, warm,
                                    ms_since(begin) / 1e3, before, after));
    }
    {
      const TierCounters before = query_tiers(daemon.endpoint());
      const Clock::time_point begin = Clock::now();
      run_connection_drops(daemon.endpoint(), set_chaff, &serial);
      const PassOutcome cold = run_pass(daemon.endpoint(), set_drops, &serial);
      run_connection_drops(daemon.endpoint(), set_chaff, &serial);
      const PassOutcome warm = run_pass(daemon.endpoint(), set_drops, &serial);
      const TierCounters after = query_tiers(daemon.endpoint());
      corrupt_served += cold.corrupt + warm.corrupt;
      entries.push_back(phase_entry("drops", cold, warm,
                                    ms_since(begin) / 1e3, before, after));
    }
    daemon.stop();
  }

  // --- phase "io-faults": torn writes + corrupted reads, memory tier off --
  {
    FaultInjector faults;
    std::string spec_error;
    (void)faults.configure("io:write:*=short-write; io:read:*=corrupt",
                           &spec_error);
    BenchServer daemon;
    ServerOptions server_options;
    server_options.endpoint.tcp_port = 0;
    server_options.cache_bytes = 0;  // force every lookup onto the disk tier
    server_options.disk_cache_dir = disk_faulty;
    server_options.faults = &faults;
    server_options.log = log;
    std::string error;
    if (daemon.start(std::move(server_options), &error)) {
      const TierCounters before = query_tiers(daemon.endpoint());
      const Clock::time_point begin = Clock::now();
      const PassOutcome cold = run_pass(daemon.endpoint(), set_faults, &serial);
      const PassOutcome warm = run_pass(daemon.endpoint(), set_faults, &serial);
      const TierCounters after = query_tiers(daemon.endpoint());
      corrupt_served += cold.corrupt + warm.corrupt;
      entries.push_back(phase_entry("io-faults", cold, warm,
                                    ms_since(begin) / 1e3, before, after));
      daemon.stop();
    }
  }

  // --- phase "restart": recovery scan + warm disk tier after a restart ----
  {
    (void)corrupt_one_entry(disk_main);  // the scan must quarantine this
    BenchServer daemon;
    ServerOptions server_options;
    server_options.endpoint.tcp_port = 0;
    server_options.disk_cache_dir = disk_main;
    server_options.log = log;
    std::string error;
    if (daemon.start(std::move(server_options), &error)) {
      const TierCounters before = query_tiers(daemon.endpoint());
      const Clock::time_point begin = Clock::now();
      // Fresh circuits execute cold; the clean set's first pass must come
      // warm off the recovered disk tier.
      const PassOutcome cold = run_pass(daemon.endpoint(), set_fresh, &serial);
      const PassOutcome warm = run_pass(daemon.endpoint(), set_clean, &serial);
      const TierCounters after = query_tiers(daemon.endpoint());
      corrupt_served += cold.corrupt + warm.corrupt;
      if (warm.requests > 0 && before.ok && after.ok) {
        restart_disk_hit_ratio = (after.disk_hits - before.disk_hits) /
                                 static_cast<double>(warm.requests);
      }
      Json entry = phase_entry("restart", cold, warm, ms_since(begin) / 1e3,
                               before, after);
      // The meaningful restart ratio: what these circuits cost to execute
      // cold (clean phase) vs what the recovered disk tier serves them for.
      entry.set("speedup_warm_vs_cold",
                median(clean_cold_ms) /
                    std::max(median(warm.latencies_ms), 1e-9));
      entries.push_back(std::move(entry));
      daemon.stop();
    }
  }

  // --- assemble ----------------------------------------------------------
  std::vector<double> speedups;
  bool all_identical = true;
  for (const Json& entry : entries) {
    for (const auto& [key, value] : entry.as_object()) {
      if (key.rfind("speedup", 0) == 0 && value.is_number()) {
        speedups.push_back(value.as_number());
      }
    }
    all_identical = all_identical && entry.at("identical").as_bool();
  }
  Json options_json = Json::object();
  options_json.set("quick", options.quick);
  options_json.set("seed", options.seed);
  options_json.set("script", kScript);
  Json summary = Json::object();
  summary.set("circuits", entries.size());
  summary.set("geomean_speedup", geomean(speedups));
  summary.set("all_identical", all_identical);
  summary.set("corrupt_served", corrupt_served);
  summary.set("restart_disk_hit_ratio", restart_disk_hit_ratio);
  Json report = Json::object();
  report.set("schema", kBenchServeSchema);
  report.set("options", std::move(options_json));
  report.set("entries", Json(std::move(entries)));
  report.set("summary", std::move(summary));
  return report;
}

std::string validate_serve_bench_report(const Json& report) {
  const std::string base = validate_bench_report(report, kBenchServeSchema);
  if (!base.empty()) return base;
  const Json& summary = report.at("summary");
  if (summary.at("corrupt_served").as_number(-1) != 0) {
    return "corrupt results were served (summary.corrupt_served != 0)";
  }
  if (summary.at("restart_disk_hit_ratio").as_number(0) <= 0) {
    return "disk tier did not survive the restart "
           "(summary.restart_disk_hit_ratio <= 0)";
  }
  return "";
}

}  // namespace mcrt
