// mcrt - command-line front end for the multiple-class retiming library.
//
//   mcrt stats   in.blif                    circuit statistics
//   mcrt classes in.blif                    register class report
//   mcrt timing  in.blif                    worst-path timing report
//   mcrt dot     in.blif out.dot            netlist as Graphviz dot
//   mcrt sweep   in.blif out.blif           constant folding + dead logic
//   mcrt strash  in.blif out.blif           merge duplicate nodes
//   mcrt regsweep in.blif out.blif          merge duplicate registers
//   mcrt map     [-k N] [-d D] in out       decompose + FlowMap k-LUT map
//   mcrt retime  [--minperiod] [--no-sharing] [--target P] in out
//                [--windows N] [--window-size N] [--window-jobs N]
//                [--cslow C]
//                                           mc-retiming (default: minarea
//                                           at minimum feasible period);
//                                           --cslow C replicates every
//                                           register into a chain of C
//                                           before retiming, multiplying
//                                           throughput across C interleaved
//                                           streams (src/cslow/,
//                                           docs/CSLOW.md); with --verify
//                                           the stream-equivalence + BMC
//                                           self-check runs instead of the
//                                           flow-level spot check (a
//                                           C-slowed netlist is not
//                                           input-equivalent);
//                                           any --window* flag switches to
//                                           the windowed flow (src/window/,
//                                           docs/WINDOWING.md): partition
//                                           into bounded regions, solve in
//                                           parallel, stitch
//   mcrt decompose-en   in out              EN -> feedback mux (baseline)
//   mcrt decompose-sync in out              SS/SC -> gates before D
//   mcrt check   [--formal] [--bmc N] a.blif b.blif
//                                           sequential equivalence
//   mcrt flow    "<script>" in out          run any pass pipeline, e.g.
//                                           "sweep; strash; retime(target=24)"
//                                           (see docs/PIPELINE.md); --profile
//                                           prints per-pass timing, --verify
//                                           spot-checks equivalence between
//                                           passes
//   mcrt bulk    "<script>" [--jobs N] [--out-dir D] [--report F]
//                [--canonical] [--timeout S] [--manifest F] [--resume]
//                [--retries N] <in.blif|dir>...
//                                           run one flow over many circuits
//                                           in parallel; directories expand
//                                           to their *.blif files, outputs
//                                           land in --out-dir (atomically),
//                                           --report writes a JSON report
//                                           (--canonical: timing-free,
//                                           machine-independent bytes).
//                                           --timeout bounds each job's wall
//                                           clock; ctrl-C cancels the batch
//                                           cleanly. --manifest journals
//                                           completed jobs so a killed batch
//                                           resumes with --resume, skipping
//                                           finished work; --retries re-runs
//                                           transient (I/O) failures.
//   mcrt corpus  <out-dir> [--count N] [--seed S] [--gates G]
//                                           write a deterministic randomized
//                                           BLIF corpus (workload generator);
//                                           --gates adds one scaled design
//                                           of ~G LUTs (the windowed-retiming
//                                           size range); progress goes to the
//                                           diagnostics sink on big suites
//   mcrt fuzz    [--budget-s S] [--cases N] [--seed S] [--oracle NAME]
//                [--out-dir D] [--report F] [--canonical] [--repro PATH]
//                [--update]
//                                           differential fuzzing across the
//                                           engine pairs (serial-vs-bulk,
//                                           bulk-vs-serve, mono-vs-windowed,
//                                           engine-vs-reference,
//                                           cslow-vs-replicated): sample a
//                                           random circuit + flow script,
//                                           cross-check, minimize failures
//                                           into self-contained reproducers
//                                           (docs/FUZZING.md). --repro PATH
//                                           replays one reproducer file;
//                                           with an explicit --seed it first
//                                           regenerates that exact case and
//                                           writes it to PATH, so a CI
//                                           failure line is copy-pasteable.
//   mcrt bench   [--quick] [--out-dir D] [--seed S]
//                [--baseline D --max-regress F]
//                                           pinned-workload bench; writes
//                                           BENCH_window.json (windowed vs
//                                           monolithic retiming) and
//                                           BENCH_cslow.json (C-slow
//                                           throughput; docs/INTERNALS.md
//                                           describes the schemas); with
//                                           --baseline, fails on a changed
//                                           window period, a risen work
//                                           counter or a C-slow speedup
//                                           regression beyond --max-regress
//   mcrt loadtest [--quick] [--out-dir D] [--seed S]
//                 [--baseline D --max-regress F]
//                                           chaos load harness for the serve
//                                           stack: in-process daemons under
//                                           injected disk faults, dropped
//                                           connections and a corrupt-entry
//                                           restart; every response is
//                                           byte-compared against the bulk
//                                           path; writes BENCH_serve.json
//
// Every transforming subcommand is a canned flow script, and `flow` runs its
// script as one job of the shared executor (pipeline/job_executor.h) that
// bulk, serve and fuzz use, so loading, fault sites, timeouts and the atomic
// output write behave identically everywhere.
//
// All files are BLIF with the `.mclatch` extension for complex registers
// (see blif/blif.h). Gate delays: `map` assigns -d per LUT (default 10);
// `retime` gives delay-less LUTs -d so the period objective is meaningful;
// other commands preserve what the file had (0 if none).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "base/cancel.h"
#include "base/fault_injector.h"
#include "base/json.h"
#include "base/socket.h"
#include "base/strings.h"
#include "base/version.h"
#include "blif/blif.h"
#include "netlist/dot_export.h"
#include "mcretime/register_class.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/diagnostics.h"
#include "pipeline/pass_manager.h"
#include "perf/bench.h"
#include "perf/serve_bench.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/equivalence.h"
#include "tech/sta.h"
#include "tech/timing_report.h"
#include "fuzz/driver.h"
#include "verify/formal_equivalence.h"
#include "verify/ternary_bmc.h"
#include "workload/generator.h"

namespace {

using namespace mcrt;

/// Batch-wide stop driven by SIGINT. request_cancel() only stores relaxed
/// atomics, so it is safe to call from the signal handler; every engine
/// polls the chained per-job tokens and unwinds at the next poll.
CancelToken g_interrupt;

extern "C" void handle_sigint(int) { g_interrupt.request_cancel(); }

int usage() {
  std::fprintf(stderr,
               "usage: mcrt <stats|classes|timing|dot|sweep|strash|regsweep|"
               "map|retime|decompose-en|decompose-sync|check|flow|bulk|"
               "corpus> [options] <in.blif> [out.blif]\n"
               "  map:    -k <lut_inputs=4>  -d <lut_delay=10>\n"
               "  retime: --minperiod  --no-sharing  --target <period>\n"
               "          --windows <n> | --window-size <n=1024> "
               "[--window-jobs <n>]\n"
               "          (any --window* flag selects the windowed parallel "
               "flow)\n"
               "          --cslow <C> (replicate registers into chains of C\n"
               "          and retime: C interleaved streams at ~T/C each;\n"
               "          --verify then runs the stream-equivalence check)\n"
               "  check:  --formal  --bmc <depth>  --bmc-x-ok (treat a\n"
               "          defined output refining an X as benign)\n"
               "  flow:   mcrt flow \"<script>\" in.blif out.blif\n"
               "          script: pass[(arg,key=val)]; pass; ...  e.g.\n"
               "          \"sweep; strash; retime(target=24,no-sharing); "
               "map(k=4)\"\n"
               "          --profile (per-pass timing)  --verify (per-pass\n"
               "          equivalence spot check)  --no-validate\n"
               "  bulk:   mcrt bulk \"<script>\" [--jobs N] [--out-dir D]\n"
               "          [--report F] [--canonical] [--timeout <seconds>]\n"
               "          [--manifest F] [--resume] [--retries N]\n"
               "          <in.blif|dir>...\n"
               "  resilience (flow and bulk):\n"
               "          --timeout <s>       per-flow/per-job deadline\n"
               "          --budget-bdd <n>    BDD node cap for verification\n"
               "          --budget-bmc <n>    BMC unroll depth cap\n"
               "          --budget-rss-mb <m> peak-RSS budget per flow\n"
               "          --faults \"<spec>\"   inject faults, e.g.\n"
               "          \"pass:retime=throw; write:*=fail@2\" (also via\n"
               "          MCRT_FAULT_* environment variables)\n"
               "  corpus: mcrt corpus <out-dir> [--count N] [--seed S]\n"
               "          [--gates G] (adds one ~G-LUT scaled design)\n"
               "  fuzz:   mcrt fuzz [--budget-s S] [--cases N] [--seed S]\n"
               "          [--oracle <serial-vs-bulk|bulk-vs-serve|"
               "mono-vs-windowed|engine-vs-reference|cslow-vs-replicated>]\n"
               "          [--out-dir D] [--report F] [--canonical]\n"
               "          differential fuzzing across the engine pairs;\n"
               "          failures are minimized into reproducers in "
               "--out-dir.\n"
               "          mcrt fuzz --repro <file> replays one reproducer\n"
               "          (--update re-minimizes and rewrites it); with an\n"
               "          explicit --seed the case is regenerated and\n"
               "          written to <file> first (see docs/FUZZING.md)\n"
               "  bench:  mcrt bench [--quick] [--out-dir D] [--seed S]\n"
               "          [--baseline <dir> --max-regress <frac=0.20>]\n"
               "          windowed and C-slow benchmarks; writes\n"
               "          BENCH_window.json and BENCH_cslow.json\n"
               "  serve:  mcrt serve (--socket <path> | --port <n>) [--jobs N]\n"
               "          [--cache-mb M] [--disk-cache-dir D "
               "--disk-cache-mb M\n"
               "          --disk-cache-ttl-s S (age out disk entries)]\n"
               "          [--max-inflight N --retry-after-ms MS] [--timeout S]\n"
               "          [--no-validate] [--verify] [--faults <spec>] "
               "[budgets]\n"
               "          persistent retiming daemon with a structural\n"
               "          result cache and a crash-safe disk tier (see\n"
               "          docs/SERVER.md)\n"
               "  client: mcrt client \"<script>\" (--socket <p> | --port <n>)\n"
               "          [--out-dir D] [--report F --canonical] [--timeout S]\n"
               "          [--retries N --retry-base-ms MS] [--tenant T]\n"
               "          [--stats] [--shutdown] <in.blif|dir>...\n"
               "          submit circuits to a running daemon; also:\n"
               "          mcrt client --hello|--stats|--health|--drain|"
               "--shutdown\n"
               "  loadtest: mcrt loadtest [--quick] [--seed S]\n"
               "          [--out-dir D] [--baseline <dir> "
               "[--max-regress F]]\n"
               "          chaos load harness: spins in-process daemons and\n"
               "          drives traffic under injected disk and connection\n"
               "          faults plus a corrupt-entry restart recovery\n"
               "          check; writes BENCH_serve.json\n"
               "  mcrt --version prints version, build type and sanitizers\n");
  return 2;
}

void print_stats(const Netlist::Stats& stats, std::int64_t period,
                 const char* label) {
  std::printf("%-10s in=%zu out=%zu lut=%zu const=%zu ff=%zu "
              "(en=%zu sync=%zu async=%zu) period=%lld\n",
              label, stats.inputs, stats.outputs, stats.luts, stats.constants,
              stats.registers, stats.with_en, stats.with_sync,
              stats.with_async, static_cast<long long>(period));
}

int cmd_stats(const Netlist& n) {
  print_stats(n.stats(), compute_period(n), "circuit");
  return 0;
}

int cmd_classes(const Netlist& n) {
  const auto classes = classify_registers(n);
  std::printf("%zu registers in %zu classes\n", n.register_count(),
              classes.class_count());
  std::vector<std::size_t> population(classes.class_count(), 0);
  for (const ClassId c : classes.reg_class) ++population[c.index()];
  for (std::size_t c = 0; c < classes.class_count(); ++c) {
    const RegisterClassInfo& info = classes.classes[c];
    std::printf("  class %zu: %zu regs, clk=%s", c, population[c],
                n.net(info.clk).name.c_str());
    if (info.en.valid()) std::printf(" en=%s", n.net(info.en).name.c_str());
    if (info.sync_ctrl.valid()) {
      std::printf(" sync=%s", n.net(info.sync_ctrl).name.c_str());
    }
    if (info.async_ctrl.valid()) {
      std::printf(" async=%s", n.net(info.async_ctrl).name.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

struct FlowFlags {
  bool profile = false;
  bool verify = false;
  bool validate = true;
  double timeout_seconds = 0;  ///< per-flow (or per-bulk-job) deadline
  ResourceBudgets budgets;
  std::string fault_spec;  ///< --faults, merged over MCRT_FAULT_* env
};

/// Builds the --faults injector (on top of the MCRT_FAULT_* environment
/// configuration). Returns false on a malformed spec.
bool make_fault_injector(const FlowFlags& flags, FaultInjector& injector,
                         DiagnosticsSink& diag) {
  if (flags.fault_spec.empty()) return true;
  std::string error;
  if (!injector.configure(flags.fault_spec, &error)) {
    diag.error("--faults", error);
    return false;
  }
  return true;
}

/// Pass-manager options of the flow, bulk and serve commands: --no-validate,
/// --verify and one equivalence spot-check effort for all three.
PassManagerOptions manager_options(const FlowFlags& flags) {
  PassManagerOptions options;
  options.check_invariants = flags.validate;
  options.check_equivalence = flags.verify;
  options.equivalence.runs = 2;
  options.equivalence.cycles = 48;
  return options;
}

/// Shared driver for `flow` and the alias subcommands: the script runs as
/// one job of the executor `mcrt bulk` uses, with its diagnostics streamed
/// to stderr while it runs.
int run_flow(const std::string& script, const std::string& in_path,
             const std::string& out_path, const FlowFlags& flags,
             StreamDiagnostics& diag) {
  FaultInjector faults;
  if (!make_fault_injector(flags, faults, diag)) return 2;
  JobExecutionOptions options;
  options.manager = manager_options(flags);
  options.manager.verbose = true;
  options.timeout_seconds = flags.timeout_seconds;
  options.cancel = &g_interrupt;
  options.budgets = flags.budgets;
  if (!flags.fault_spec.empty()) options.faults = &faults;

  const PipelineBuilder compile = script_pipeline(script);
  bool script_error = false;
  BulkJobResult result;
  execute_flow_job(
      make_file_job(in_path, out_path),
      [&](PassManager& manager, std::string* error) {
        script_error = !compile(manager, error);
        return !script_error;
      },
      options, result, &diag);
  if (script_error) {
    diag.error("flow", result.error);
    return 2;
  }
  if (flags.profile && !result.executed.empty()) {
    std::fputs(format_profile(result.executed).c_str(), stderr);
  }
  if (!result.success) {
    diag.error("flow", str_format("%s: %s", job_status_name(result.status),
                                  result.error.c_str()));
    return 1;
  }
  print_stats(result.after, result.period_after, "result");
  return 0;
}

struct BulkFlags {
  std::size_t jobs = 0;  ///< 0 = hardware concurrency
  std::string out_dir;
  std::string report_path;
  bool canonical = false;
  std::string manifest_path;
  bool resume = false;
  std::size_t retries = 0;
};

/// Expands each input (a .blif file or a directory scanned for *.blif,
/// sorted) into bulk jobs writing to `out_dir` (if given). Deterministic
/// job order: inputs as given, directory entries sorted by name.
std::vector<BulkJob> collect_bulk_jobs(const std::vector<std::string>& inputs,
                                       const std::string& out_dir,
                                       DiagnosticsSink& diag, bool* ok) {
  namespace fs = std::filesystem;
  *ok = true;
  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      std::vector<std::string> found;
      for (const auto& entry : fs::directory_iterator(input, ec)) {
        if (entry.path().extension() == ".blif") {
          found.push_back(entry.path().string());
        }
      }
      if (ec) {
        diag.error(input, "cannot list directory: " + ec.message());
        *ok = false;
        return {};
      }
      std::sort(found.begin(), found.end());
      if (found.empty()) diag.warning(input, "no .blif files in directory");
      files.insert(files.end(), found.begin(), found.end());
    } else {
      files.push_back(input);
    }
  }
  std::vector<BulkJob> jobs;
  jobs.reserve(files.size());
  for (const std::string& file : files) {
    std::string output;
    if (!out_dir.empty()) {
      output = (fs::path(out_dir) / fs::path(file).filename()).string();
    }
    jobs.push_back(make_file_job(file, std::move(output)));
  }
  // Two inputs mapping onto one output file would race; refuse up front.
  for (std::size_t i = 0; i + 1 < jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < jobs.size(); ++j) {
      if (!jobs[i].output_path.empty() &&
          jobs[i].output_path == jobs[j].output_path) {
        diag.error(jobs[j].input_path,
                   "output collides with " + jobs[i].input_path + " at " +
                       jobs[i].output_path);
        *ok = false;
        return {};
      }
    }
  }
  return jobs;
}

int cmd_bulk(const std::string& script, const std::vector<std::string>& inputs,
             const BulkFlags& bulk, const FlowFlags& flags,
             StreamDiagnostics& diag) {
  bool ok = false;
  std::vector<BulkJob> jobs =
      collect_bulk_jobs(inputs, bulk.out_dir, diag, &ok);
  if (!ok) return 2;
  if (jobs.empty()) {
    diag.error("bulk", "no input circuits");
    return 2;
  }

  FaultInjector faults;
  if (!make_fault_injector(flags, faults, diag)) return 2;

  BulkOptions options;
  options.jobs = bulk.jobs;
  options.manager = manager_options(flags);
  options.timeout_seconds = flags.timeout_seconds;
  options.cancel = &g_interrupt;
  options.manifest_path = bulk.manifest_path;
  options.resume = bulk.resume;
  options.max_retries = bulk.retries;
  options.budgets = flags.budgets;
  if (!flags.fault_spec.empty()) options.faults = &faults;
  BulkRunner runner(script, options);
  if (const auto error = runner.check()) {
    diag.error("bulk", *error);
    return 2;
  }
  const BulkReport report = runner.run(jobs);

  for (const BulkJobResult& r : report.results) {
    if (r.success) {
      std::printf("%-20s %-9s lut %zu -> %zu  ff %zu -> %zu  period "
                  "%lld -> %lld  (%.3fs)\n",
                  r.name.c_str(), r.resumed ? "ok*" : "ok", r.before.luts,
                  r.after.luts, r.before.registers, r.after.registers,
                  static_cast<long long>(r.period_before),
                  static_cast<long long>(r.period_after), r.seconds);
    } else {
      std::printf("%-20s %-9s %s\n", r.name.c_str(),
                  job_status_name(r.status), r.error.c_str());
      for (const Diagnostic& d : r.diagnostics) {
        if (d.severity != DiagSeverity::kNote) diag.report(d);
      }
    }
  }
  std::printf("bulk: %zu/%zu ok on %zu workers, wall %.3fs cpu %.3fs "
              "(speedup %.2fx)\n",
              report.succeeded(), report.results.size(), report.jobs,
              report.wall_seconds, report.cpu_seconds, report.speedup());

  if (!bulk.report_path.empty()) {
    BulkJsonOptions json;
    json.canonical = bulk.canonical;
    std::ofstream out(bulk.report_path, std::ios::binary);
    out << report.to_json(json);
    if (!out) {
      diag.error(bulk.report_path, "cannot write report");
      return 1;
    }
  }
  return report.failed() == 0 ? 0 : 1;
}

int cmd_corpus(const std::string& out_dir, std::size_t count,
               std::uint64_t seed, std::size_t scaled_gates,
               StreamDiagnostics& diag) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  std::vector<CircuitProfile> suite = random_suite(count, seed);
  if (scaled_gates > 0) suite.push_back(scaled_profile(scaled_gates, seed));
  // Big suites (many circuits, or a scaled design that takes seconds to
  // generate and write) report progress through the diagnostics sink so a
  // long-running corpus build is visibly alive, not hung.
  const bool report_progress = suite.size() >= 16 || scaled_gates >= 100000;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const CircuitProfile& profile = suite[i];
    if (report_progress) {
      diag.note("corpus", str_format("[%zu/%zu] generating %s", i + 1,
                                     suite.size(), profile.name.c_str()));
    }
    const Netlist netlist = generate_circuit(profile);
    const std::string path =
        (fs::path(out_dir) / (profile.name + ".blif")).string();
    if (!write_blif_file(netlist, path, profile.name)) {
      diag.error(path, "cannot write file");
      return 1;
    }
    const auto stats = netlist.stats();
    std::printf("%s: in=%zu lut=%zu ff=%zu\n", path.c_str(), stats.inputs,
                stats.luts, stats.registers);
  }
  return 0;
}

struct BenchFlags {
  bool quick = false;          ///< trimmed suite + fewer reps (CI smoke)
  std::string out_dir = ".";   ///< where BENCH_*.json land
  std::uint64_t seed = 1;      ///< workload / stimulus seed
  std::string baseline_dir;    ///< committed BENCH_*.json to gate against
  double max_regress = 0.20;   ///< allowed fractional speedup loss
};

/// The --baseline gate of `bench` and `loadtest`: reads the committed
/// `file_name` from the baseline directory, validates it, and reports every
/// bench_regressions() finding of `current`. Returns true when the
/// baseline is readable, valid and not regressed.
bool gate_against_baseline(
    const Json& current, const BenchFlags& flags, const char* origin,
    const char* file_name,
    const std::function<std::string(const Json&)>& validate,
    DiagnosticsSink& diag) {
  const std::string path =
      (std::filesystem::path(flags.baseline_dir) / file_name).string();
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    diag.error(origin, "cannot read baseline " + path);
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto parsed = Json::parse(text);
  if (const auto* err = std::get_if<JsonParseError>(&parsed)) {
    diag.error(origin, path + ": " + err->message);
    return false;
  }
  const Json& baseline = std::get<Json>(parsed);
  const std::string problem = validate(baseline);
  if (!problem.empty()) {
    diag.error(origin, path + ": " + problem);
    return false;
  }
  const std::vector<std::string> regressions =
      bench_regressions(current, baseline, flags.max_regress);
  for (const std::string& regression : regressions) {
    diag.error(origin, std::string(file_name) + ": " + regression);
  }
  return regressions.empty();
}

int cmd_bench(const BenchFlags& flags, StreamDiagnostics& diag) {
  namespace fs = std::filesystem;
  const BenchOptions options{flags.quick, flags.seed};

  const auto run_one = [&](const char* label, const char* schema,
                           const char* file_name, Json (*runner)(
                               const BenchOptions&)) -> std::optional<Json> {
    std::printf("bench: running %s suite (%s)...\n", label,
                flags.quick ? "quick" : "full");
    Json report = runner(options);
    const std::string problem = validate_bench_report(report, schema);
    if (!problem.empty()) {
      diag.error("bench", std::string(label) + ": " + problem);
      return std::nullopt;
    }
    for (const Json& entry : report.at("entries").as_array()) {
      std::string line =
          str_format("  %-8s", entry.at("circuit").as_string().c_str());
      for (const auto& [key, value] : entry.as_object()) {
        if (key.rfind("speedup", 0) == 0) {
          line += str_format(" %s=%.2fx", key.c_str(), value.as_number());
        }
      }
      std::printf("%s\n", line.c_str());
    }
    std::printf("  geomean %.2fx over %lld circuits\n",
                report.at("summary").at("geomean_speedup").as_number(),
                static_cast<long long>(
                    report.at("summary").at("circuits").as_int()));
    std::error_code ec;
    fs::create_directories(flags.out_dir, ec);
    const std::string path = (fs::path(flags.out_dir) / file_name).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << write_bench_report(report);
    if (!out.good()) {
      diag.error("bench", "cannot write " + path);
      return std::nullopt;
    }
    std::printf("  wrote %s\n", path.c_str());
    return report;
  };

  const auto window = run_one("window", kBenchWindowSchema,
                              "BENCH_window.json", run_window_bench);
  if (!window) return 1;
  const auto cslow = run_one("cslow", kBenchCslowSchema, "BENCH_cslow.json",
                             run_cslow_bench);
  if (!cslow) return 1;

  if (flags.baseline_dir.empty()) return 0;

  // Regression gate vs the committed baseline documents (bench_regressions).
  bool ok = gate_against_baseline(
      *window, flags, "bench", "BENCH_window.json",
      [](const Json& j) { return validate_bench_report(j, kBenchWindowSchema); },
      diag);
  ok &= gate_against_baseline(
      *cslow, flags, "bench", "BENCH_cslow.json",
      [](const Json& j) { return validate_bench_report(j, kBenchCslowSchema); },
      diag);
  if (!ok) return 1;
  std::printf("bench: no regression vs baseline\n");
  return 0;
}

int cmd_loadtest(const BenchFlags& flags, StreamDiagnostics& diag) {
  namespace fs = std::filesystem;
  ServeBenchOptions options;
  options.quick = flags.quick;
  options.seed = flags.seed;
  options.work_dir = (fs::path(flags.out_dir) / "loadtest_work").string();

  std::printf("loadtest: running serve chaos phases (%s)...\n",
              flags.quick ? "quick" : "full");
  const Json report = run_serve_bench(options, &diag);
  const std::string problem = validate_serve_bench_report(report);
  if (!problem.empty()) {
    if (report.has("error")) {
      diag.error("loadtest", report.at("error").as_string());
    }
    diag.error("loadtest", problem);
    return 1;
  }
  for (const Json& entry : report.at("entries").as_array()) {
    std::printf(
        "  %-10s requests=%lld speedup=%.2fx p99=%.1fms mem_hit=%.2f "
        "disk_hit=%.2f identical=%s\n",
        entry.at("circuit").as_string().c_str(),
        static_cast<long long>(entry.at("requests").as_int()),
        entry.at("speedup_warm_vs_cold").as_number(),
        entry.at("p99_ms").as_number(), entry.at("mem_hit_ratio").as_number(),
        entry.at("disk_hit_ratio").as_number(),
        entry.at("identical").as_bool() ? "yes" : "NO");
  }
  const Json& summary = report.at("summary");
  std::printf(
      "  geomean %.2fx, corrupt_served=%lld, restart_disk_hit_ratio=%.2f\n",
      summary.at("geomean_speedup").as_number(),
      static_cast<long long>(summary.at("corrupt_served").as_int()),
      summary.at("restart_disk_hit_ratio").as_number());

  std::error_code ec;
  fs::create_directories(flags.out_dir, ec);
  const std::string path =
      (fs::path(flags.out_dir) / "BENCH_serve.json").string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << write_bench_report(report);
  if (!out.good()) {
    diag.error("loadtest", "cannot write " + path);
    return 1;
  }
  std::printf("  wrote %s\n", path.c_str());

  if (flags.baseline_dir.empty()) return 0;
  if (!gate_against_baseline(report, flags, "loadtest", "BENCH_serve.json",
                             validate_serve_bench_report, diag)) {
    return 1;
  }
  std::printf("loadtest: no regression vs baseline\n");
  return 0;
}

struct ServeFlags {
  std::string socket_path;    ///< --socket (Unix-domain)
  int port = -1;              ///< --port (loopback TCP; 0 = ephemeral)
  std::size_t cache_mb = 64;  ///< --cache-mb (0 disables the result cache)
  std::string disk_cache_dir;       ///< --disk-cache-dir (empty = no tier)
  std::size_t disk_cache_mb = 256;  ///< --disk-cache-mb
  std::uint64_t disk_cache_ttl_s = 0;  ///< --disk-cache-ttl-s (0 = no aging)
  std::size_t max_inflight = 0;     ///< --max-inflight (0 = unbounded)
  int retry_after_ms = 200;         ///< --retry-after-ms (busy frame hint)
  int retry_base_ms = 50;     ///< client: --retry-base-ms (backoff base)
  std::string tenant;         ///< client: --tenant (fair-share bucket)
  bool stats = false;         ///< client: print the daemon's {"stats"} frame
  bool shutdown = false;      ///< client: stop the daemon when done
  bool hello = false;         ///< client: print the greeting hello frame
  bool health = false;        ///< client: print the {"health"} frame
  bool drain = false;         ///< client: ask the daemon to drain
};

bool serve_endpoint(const ServeFlags& serve, SocketEndpoint* endpoint,
                    DiagnosticsSink& diag) {
  if (serve.socket_path.empty() && serve.port < 0) {
    diag.error("serve", "need --socket <path> or --port <n>");
    return false;
  }
  endpoint->unix_path = serve.socket_path;
  endpoint->tcp_port =
      serve.port > 0 ? static_cast<std::uint16_t>(serve.port) : 0;
  return true;
}

int cmd_serve(const ServeFlags& serve, const BulkFlags& bulk,
              const FlowFlags& flags, StreamDiagnostics& diag) {
  ServerOptions options;
  if (!serve_endpoint(serve, &options.endpoint, diag)) return 2;
  FaultInjector faults;
  if (!make_fault_injector(flags, faults, diag)) return 2;
  options.jobs = bulk.jobs;
  options.cache_bytes = serve.cache_mb << 20;
  options.disk_cache_dir = serve.disk_cache_dir;
  options.disk_cache_bytes = serve.disk_cache_mb << 20;
  options.disk_cache_ttl_seconds = serve.disk_cache_ttl_s;
  options.max_inflight = serve.max_inflight;
  options.retry_after_ms = serve.retry_after_ms;
  // Same equivalence effort the flow/bulk commands use, so a request with
  // verify=true spot-checks exactly like `mcrt bulk --verify`.
  options.manager = manager_options(flags);
  options.default_timeout_seconds = flags.timeout_seconds;
  options.budgets = flags.budgets;
  if (!flags.fault_spec.empty()) options.faults = &faults;
  options.log = &diag;

  RetimingServer server(options);
  std::string error;
  if (!server.start(&error)) {
    diag.error("serve", error);
    return 1;
  }
  // The smoke tests (and shell users) wait for this line before dialing.
  std::printf("mcrt serve: listening on %s\n",
              server.bound_endpoint().describe().c_str());
  std::fflush(stdout);
  server.run(&g_interrupt);
  const ServerStats stats = server.stats();
  const CacheStats cache = server.cache_stats();
  std::printf("mcrt serve: %llu requests (%llu ok, %llu failed, %llu timeout, "
              "%llu cancelled, %llu busy, %llu coalesced), cache %llu/%llu "
              "hits\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.ok),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.timeout),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.busy),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.hits + cache.misses));
  if (const std::optional<DiskCacheStats> disk = server.disk_cache_stats()) {
    std::printf("mcrt serve: disk cache %llu/%llu hits, %zu entries, "
                "%llu quarantined, %llu write failures\n",
                static_cast<unsigned long long>(disk->hits),
                static_cast<unsigned long long>(disk->hits + disk->misses),
                disk->entries,
                static_cast<unsigned long long>(disk->quarantined),
                static_cast<unsigned long long>(disk->write_failures));
  }
  return 0;
}

int cmd_client(const std::string& script,
               const std::vector<std::string>& inputs, const ServeFlags& serve,
               const BulkFlags& bulk, const FlowFlags& flags,
               StreamDiagnostics& diag) {
  namespace fs = std::filesystem;
  SocketEndpoint endpoint;
  if (!serve_endpoint(serve, &endpoint, diag)) return 2;
  if (!bulk.report_path.empty() && !bulk.canonical) {
    diag.error("client", "--report needs --canonical (the client composes "
                         "the report from the daemon's canonical records)");
    return 2;
  }

  ServeClient client;
  std::string error;
  if (!client.connect(endpoint, &error)) {
    diag.error("client", error);
    return 1;
  }
  if (serve.hello) std::printf("%s\n", client.greeting().write().c_str());

  int exit_code = 0;
  std::vector<std::string> job_jsons;
  std::size_t succeeded = 0;
  if (!inputs.empty()) {
    bool ok = false;
    std::vector<BulkJob> jobs =
        collect_bulk_jobs(inputs, bulk.out_dir, diag, &ok);
    if (!ok) return 2;
    if (jobs.empty()) {
      diag.error("client", "no input circuits");
      return 2;
    }
    std::vector<JobRequest> requests;
    requests.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      JobRequest request;
      request.id = str_format("j%zu", i);
      request.name = jobs[i].name;
      request.tenant = serve.tenant;
      // The daemon may run in a different working directory.
      request.path = fs::absolute(jobs[i].input_path).string();
      if (!jobs[i].output_path.empty()) {
        request.output = fs::absolute(jobs[i].output_path).string();
      }
      request.script = script;
      request.options.canonical = bulk.canonical;
      request.options.timeout_seconds = flags.timeout_seconds;
      request.options.validate = flags.validate;
      request.options.verify = flags.verify;
      request.options.budgets = flags.budgets;
      if (!client.submit(request)) {
        diag.error("client", "connection lost while submitting");
        return 1;
      }
      requests.push_back(std::move(request));
    }
    std::vector<ClientJobResult> results;
    if (!client.collect(&results, &error)) {
      diag.error("client", error);
      return 1;
    }
    // Re-submit transient outcomes — busy frames and the kIoError class
    // `mcrt bulk` retries — with exponential backoff honoring the daemon's
    // retry-after hint.
    RetryPolicy policy;
    policy.max_attempts = 1 + static_cast<int>(bulk.retries);
    policy.base_delay_ms = serve.retry_base_ms;
    for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
      int hint_ms = 0;
      std::vector<std::size_t> redo;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].retryable()) {
          hint_ms = std::max(hint_ms, results[i].retry_after_ms);
          redo.push_back(i);
        }
      }
      if (redo.empty()) break;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(policy.delay_ms(attempt, hint_ms)));
      for (const std::size_t i : redo) {
        if (!client.submit(requests[i])) {
          diag.error("client", "connection lost while retrying");
          return 1;
        }
      }
      if (!client.collect(&results, &error)) {
        diag.error("client", error);
        return 1;
      }
    }
    for (const ClientJobResult& result : results) {
      if (result.success) {
        // Pull the stats line out of the per-job report object.
        auto parsed = Json::parse(result.job_json);
        const Json* job = std::get_if<Json>(&parsed);
        const Json& before = job != nullptr ? job->at("before") : Json();
        const Json& after = job != nullptr ? job->at("after") : Json();
        std::printf("%-20s %-9s lut %lld -> %lld  ff %lld -> %lld  period "
                    "%lld -> %lld%s\n",
                    result.name.c_str(), "ok",
                    static_cast<long long>(before.at("luts").as_int()),
                    static_cast<long long>(after.at("luts").as_int()),
                    static_cast<long long>(before.at("registers").as_int()),
                    static_cast<long long>(after.at("registers").as_int()),
                    static_cast<long long>(before.at("period").as_int()),
                    static_cast<long long>(after.at("period").as_int()),
                    result.cached ? "  (cached)" : "");
        ++succeeded;
      } else {
        std::printf("%-20s %-9s %s\n", result.name.c_str(),
                    result.status.c_str(), result.error.c_str());
        for (const Diagnostic& d : result.diagnostics) {
          if (d.severity != DiagSeverity::kNote) diag.report(d);
        }
        exit_code = 1;
      }
      job_jsons.push_back(result.job_json);
    }
    for (const std::string& protocol_error : client.protocol_errors()) {
      diag.error("client", protocol_error);
      exit_code = 1;
    }
    std::printf("client: %zu/%zu ok\n", succeeded, results.size());

    if (!bulk.report_path.empty()) {
      std::ofstream out(bulk.report_path, std::ios::binary);
      out << compose_canonical_report_json(script, job_jsons, succeeded);
      if (!out) {
        diag.error(bulk.report_path, "cannot write report");
        return 1;
      }
    }
  }

  if (serve.stats) {
    std::optional<Json> stats = client.query_stats(&error);
    if (!stats) {
      diag.error("client", error);
      return 1;
    }
    std::printf("%s\n", stats->write().c_str());
  }
  if (serve.health) {
    std::optional<Json> health = client.query_health(&error);
    if (!health) {
      diag.error("client", error);
      return 1;
    }
    std::printf("%s\n", health->write().c_str());
  }
  if (serve.drain) {
    std::optional<Json> ack = client.send_drain(&error);
    if (!ack) {
      diag.error("client", error);
      return 1;
    }
    std::printf("%s\n", ack->write().c_str());
  }
  if (serve.shutdown) {
    if (!client.send_shutdown()) {
      diag.error("client", "connection lost before shutdown");
      return 1;
    }
  }
  return exit_code;
}

// ---------------------------------------------------------------------------
// fuzz: differential fuzzing across the engine pairs (src/fuzz/,
// docs/FUZZING.md).

struct FuzzFlags {
  std::size_t cases = 0;      ///< --cases (0 = run until the budget expires)
  double budget_seconds = 0;  ///< --budget-s (both zero => 60s default)
  std::string oracle;         ///< --oracle (empty = round-robin over all four)
  std::string repro_path;     ///< --repro: replay (or materialize) one case
  bool update = false;        ///< --update: re-minimize + rewrite a failing repro
  bool seed_given = false;    ///< explicit --seed (drives --repro write mode)
  std::string plant_bug;      ///< --plant-bug: sabotage spec (self-tests only)
};

/// Replays one reproducer. With an explicit --seed the case is first
/// regenerated from that 64-bit case seed and written to the path, so the
/// seed printed by a CI failure line materializes as a committable file.
int cmd_fuzz_repro(const FuzzFlags& fuzz, std::uint64_t seed,
                   const std::optional<OracleKind>& only,
                   const OracleOptions& oracle_options,
                   StreamDiagnostics& diag) {
  FuzzCase c;
  if (fuzz.seed_given) {
    c = generate_fuzz_case_from_seed(seed,
                                     only.value_or(OracleKind::kSerialVsBulk));
    if (!fuzz.plant_bug.empty()) c.break_spec = fuzz.plant_bug;
    if (!write_repro_file(c, fuzz.repro_path)) {
      diag.error(fuzz.repro_path, "cannot write reproducer");
      return 1;
    }
  } else {
    auto parsed = read_repro_file(fuzz.repro_path);
    if (const auto* err = std::get_if<std::string>(&parsed)) {
      diag.error(fuzz.repro_path, *err);
      return 2;
    }
    c = std::move(std::get<FuzzCase>(parsed));
    if (only.has_value()) c.oracle = *only;
    if (!fuzz.plant_bug.empty()) c.break_spec = fuzz.plant_bug;
  }

  OracleVerdict verdict;
  try {
    verdict = run_oracle(c, oracle_options);
  } catch (const CancelledError&) {
    diag.error(c.name, "cancelled");
    return 130;
  }
  for (const OracleLeg& leg : verdict.legs) {
    std::printf("  %-28s %s%s%s\n", leg.name.c_str(),
                leg.pass ? "PASS" : "FAIL", leg.detail.empty() ? "" : "  ",
                leg.detail.c_str());
  }
  std::printf("%s [%s seed %llu]: %s\n", c.name.c_str(),
              oracle_name(c.oracle),
              static_cast<unsigned long long>(c.seed),
              verdict.pass ? "PASS" : verdict.first_failure().c_str());

  if (!verdict.pass && fuzz.update) {
    ShrinkOptions shrink;
    shrink.oracle = oracle_options;
    const ShrinkResult r = shrink_case(c, shrink);
    if (r.still_failing) {
      if (!write_repro_file(r.minimized, fuzz.repro_path)) {
        diag.error(fuzz.repro_path, "cannot rewrite reproducer");
        return 1;
      }
      std::printf("re-minimized: %zu -> %zu LUTs (%zu oracle runs)\n",
                  r.before.luts, r.after.luts, r.oracle_runs);
    }
  }
  return verdict.pass ? 0 : 1;
}

int cmd_fuzz(const FuzzFlags& fuzz, const BulkFlags& bulk,
             const FlowFlags& flags, std::uint64_t seed,
             StreamDiagnostics& diag) {
  OracleOptions oracle_options;
  if (flags.timeout_seconds > 0) {
    oracle_options.timeout_seconds = flags.timeout_seconds;
  }
  oracle_options.cancel = &g_interrupt;

  std::optional<OracleKind> only;
  if (!fuzz.oracle.empty()) {
    only = oracle_from_name(fuzz.oracle);
    if (!only.has_value()) {
      diag.error("fuzz", str_format(
          "unknown oracle '%s' (serial-vs-bulk, bulk-vs-serve, "
          "mono-vs-windowed, engine-vs-reference, cslow-vs-replicated)",
          fuzz.oracle.c_str()));
      return 2;
    }
  }

  if (!fuzz.repro_path.empty()) {
    return cmd_fuzz_repro(fuzz, seed, only, oracle_options, diag);
  }

  FuzzDriverOptions options;
  options.seed = seed;
  options.cases = fuzz.cases;
  options.budget_seconds = fuzz.budget_seconds;
  options.only_oracle = only;
  options.out_dir = bulk.out_dir;
  options.canonical = bulk.canonical;
  options.oracle = oracle_options;
  options.cancel = &g_interrupt;
  options.break_spec = fuzz.plant_bug;
  options.progress = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };

  const FuzzRunReport report = run_fuzz(options);
  if (!bulk.report_path.empty()) {
    namespace fs = std::filesystem;
    const fs::path parent = fs::path(bulk.report_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      fs::create_directories(parent, ec);
    }
    std::ofstream out(bulk.report_path, std::ios::binary);
    out << report.to_json(bulk.canonical) << "\n";
    if (!out) {
      diag.error(bulk.report_path, "cannot write report");
      return 1;
    }
  }
  std::printf("fuzz: %zu cases, %zu failures (seed %llu, %.1fs)\n",
              report.cases_run, report.failures,
              static_cast<unsigned long long>(report.seed),
              report.wall_seconds);
  return report.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--version") == 0 ||
                    std::strcmp(argv[1], "version") == 0)) {
    std::printf("%s\n", version_line().c_str());
    return 0;
  }
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // `bench` and `fuzz` are self-contained (generated workloads, no circuit
  // files), so a bare `mcrt bench` / `mcrt fuzz` is a complete invocation.
  if (argc < 3 && command != "bench" && command != "fuzz") return usage();
  StreamDiagnostics diag(stderr);

  // Collect flags and positionals.
  std::vector<std::string> files;
  std::uint32_t lut_k = 4;
  std::int64_t lut_delay = 10;
  bool minperiod = false;
  std::int64_t target_period = 0;
  bool no_sharing = false;
  bool windowed = false;         ///< any --window* flag seen
  std::size_t window_count = 0;  ///< --windows (0 = derive from size)
  std::size_t window_size = 0;   ///< --window-size (0 = pass default)
  std::size_t window_jobs = 0;   ///< --window-jobs (0 = hardware threads)
  std::uint32_t cslow = 0;       ///< --cslow (0 = off)
  std::size_t corpus_gates = 0;  ///< corpus --gates (0 = random suite only)
  bool formal = false;
  std::size_t bmc_depth = 0;
  bool bmc_x_ok = false;
  FlowFlags flow_flags;
  BulkFlags bulk_flags;
  ServeFlags serve_flags;
  std::size_t corpus_count = 10;
  std::uint64_t corpus_seed = 1;
  BenchFlags bench_flags;
  FuzzFlags fuzz_flags;
  // Value-taking long flags accept both "--flag value" and "--flag=value".
  const auto flag_value = [&](const std::string& arg, const char* name,
                              int* i, std::string* value) {
    const std::string prefix = std::string(name) + "=";
    if (arg == name && *i + 1 < argc) {
      *value = argv[++*i];
      return true;
    }
    if (starts_with(arg, prefix)) {
      *value = arg.substr(prefix.size());
      return true;
    }
    return false;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (flag_value(arg, "--jobs", &i, &value)) {
      bulk_flags.jobs = static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--out-dir", &i, &value)) {
      bulk_flags.out_dir = value;
      bench_flags.out_dir = value;
      continue;
    }
    if (flag_value(arg, "--report", &i, &value)) {
      bulk_flags.report_path = value;
      continue;
    }
    if (flag_value(arg, "--count", &i, &value)) {
      corpus_count = static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--gates", &i, &value)) {
      corpus_gates = static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--windows", &i, &value)) {
      window_count = static_cast<std::size_t>(std::atoll(value.c_str()));
      windowed = true;
      continue;
    }
    if (flag_value(arg, "--window-size", &i, &value)) {
      window_size = static_cast<std::size_t>(std::atoll(value.c_str()));
      windowed = true;
      continue;
    }
    if (flag_value(arg, "--window-jobs", &i, &value)) {
      window_jobs = static_cast<std::size_t>(std::atoll(value.c_str()));
      windowed = true;
      continue;
    }
    if (flag_value(arg, "--cslow", &i, &value)) {
      cslow = static_cast<std::uint32_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--seed", &i, &value)) {
      corpus_seed = std::strtoull(value.c_str(), nullptr, 10);
      bench_flags.seed = corpus_seed;
      fuzz_flags.seed_given = true;
      continue;
    }
    if (flag_value(arg, "--budget-s", &i, &value)) {
      fuzz_flags.budget_seconds = std::atof(value.c_str());
      continue;
    }
    if (flag_value(arg, "--cases", &i, &value)) {
      fuzz_flags.cases = static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--oracle", &i, &value)) {
      fuzz_flags.oracle = value;
      continue;
    }
    if (flag_value(arg, "--repro", &i, &value)) {
      fuzz_flags.repro_path = value;
      continue;
    }
    if (arg == "--update") {
      fuzz_flags.update = true;
      continue;
    }
    if (flag_value(arg, "--plant-bug", &i, &value)) {
      fuzz_flags.plant_bug = value;
      continue;
    }
    if (arg == "--quick") {
      bench_flags.quick = true;
      continue;
    }
    if (flag_value(arg, "--baseline", &i, &value)) {
      bench_flags.baseline_dir = value;
      continue;
    }
    if (flag_value(arg, "--max-regress", &i, &value)) {
      bench_flags.max_regress = std::atof(value.c_str());
      continue;
    }
    if (arg == "--canonical") {
      bulk_flags.canonical = true;
      continue;
    }
    if (flag_value(arg, "--timeout", &i, &value)) {
      flow_flags.timeout_seconds = std::atof(value.c_str());
      continue;
    }
    if (flag_value(arg, "--manifest", &i, &value)) {
      bulk_flags.manifest_path = value;
      continue;
    }
    if (arg == "--resume") {
      bulk_flags.resume = true;
      continue;
    }
    if (flag_value(arg, "--retries", &i, &value)) {
      bulk_flags.retries = static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--faults", &i, &value)) {
      flow_flags.fault_spec = value;
      continue;
    }
    if (flag_value(arg, "--budget-bdd", &i, &value)) {
      flow_flags.budgets.bdd_node_cap =
          static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--budget-bmc", &i, &value)) {
      flow_flags.budgets.bmc_step_cap =
          static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--budget-rss-mb", &i, &value)) {
      flow_flags.budgets.max_rss_bytes =
          static_cast<std::size_t>(std::atoll(value.c_str())) * 1024 * 1024;
      continue;
    }
    if (arg == "--bmc-x-ok") {
      bmc_x_ok = true;
      continue;
    }
    if (flag_value(arg, "--socket", &i, &value)) {
      serve_flags.socket_path = value;
      continue;
    }
    if (flag_value(arg, "--port", &i, &value)) {
      serve_flags.port = std::atoi(value.c_str());
      continue;
    }
    if (flag_value(arg, "--cache-mb", &i, &value)) {
      serve_flags.cache_mb = static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--disk-cache-dir", &i, &value)) {
      serve_flags.disk_cache_dir = value;
      continue;
    }
    if (flag_value(arg, "--disk-cache-mb", &i, &value)) {
      serve_flags.disk_cache_mb =
          static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--disk-cache-ttl-s", &i, &value)) {
      serve_flags.disk_cache_ttl_s =
          static_cast<std::uint64_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--max-inflight", &i, &value)) {
      serve_flags.max_inflight =
          static_cast<std::size_t>(std::atoll(value.c_str()));
      continue;
    }
    if (flag_value(arg, "--retry-after-ms", &i, &value)) {
      serve_flags.retry_after_ms = std::atoi(value.c_str());
      continue;
    }
    if (flag_value(arg, "--retry-base-ms", &i, &value)) {
      serve_flags.retry_base_ms = std::atoi(value.c_str());
      continue;
    }
    if (flag_value(arg, "--tenant", &i, &value)) {
      serve_flags.tenant = value;
      continue;
    }
    if (arg == "--stats") {
      serve_flags.stats = true;
      continue;
    }
    if (arg == "--shutdown") {
      serve_flags.shutdown = true;
      continue;
    }
    if (arg == "--hello") {
      serve_flags.hello = true;
      continue;
    }
    if (arg == "--health") {
      serve_flags.health = true;
      continue;
    }
    if (arg == "--drain") {
      serve_flags.drain = true;
      continue;
    }
    if (arg == "-k" && i + 1 < argc) {
      lut_k = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "-d" && i + 1 < argc) {
      lut_delay = std::atoll(argv[++i]);
    } else if (arg == "--minperiod") {
      minperiod = true;
    } else if (arg == "--target" && i + 1 < argc) {
      target_period = std::atoll(argv[++i]);
    } else if (arg == "--no-sharing") {
      no_sharing = true;
    } else if (arg == "--formal") {
      formal = true;
    } else if (arg == "--bmc" && i + 1 < argc) {
      bmc_depth = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--profile") {
      flow_flags.profile = true;
    } else if (arg == "--verify") {
      flow_flags.verify = true;
    } else if (arg == "--no-validate") {
      flow_flags.validate = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  const bool server_command = command == "serve" || command == "client";
  if (files.empty() && !server_command && command != "bench" &&
      command != "fuzz" && command != "loadtest") {
    return usage();
  }

  // ctrl-C requests a clean cooperative stop: in-flight flows unwind at
  // their next engine poll and report "cancelled" instead of dying mid-write.
  std::signal(SIGINT, handle_sigint);
  // A dropped client mid-reply must surface as a write error on that
  // session, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  if (command == "serve") {
    if (!files.empty()) return usage();
    return cmd_serve(serve_flags, bulk_flags, flow_flags, diag);
  }
  if (command == "client") {
    // Positionals are the flow script then circuits; a control-only call
    // (--hello / --stats / --shutdown) takes none.
    if (files.size() == 1 ||
        (files.empty() && !serve_flags.hello && !serve_flags.stats &&
         !serve_flags.shutdown && !serve_flags.health &&
         !serve_flags.drain)) {
      return usage();
    }
    const std::string script = files.empty() ? std::string() : files[0];
    const std::vector<std::string> inputs(
        files.empty() ? files.end() : files.begin() + 1, files.end());
    return cmd_client(script, inputs, serve_flags, bulk_flags, flow_flags,
                      diag);
  }

  // `flow` positionals are script, input, output; everything else starts
  // with the input file.
  if (command == "flow") {
    if (files.size() < 3) return usage();
    return run_flow(files[0], files[1], files[2], flow_flags, diag);
  }
  if (command == "bulk") {
    if (files.size() < 2) return usage();
    const std::vector<std::string> inputs(files.begin() + 1, files.end());
    return cmd_bulk(files[0], inputs, bulk_flags, flow_flags, diag);
  }
  if (command == "corpus") {
    return cmd_corpus(files[0], corpus_count, corpus_seed, corpus_gates, diag);
  }
  if (command == "bench") {
    if (!files.empty()) return usage();
    return cmd_bench(bench_flags, diag);
  }
  if (command == "loadtest") {
    if (!files.empty()) return usage();
    return cmd_loadtest(bench_flags, diag);
  }
  if (command == "fuzz") {
    if (!files.empty()) return usage();
    return cmd_fuzz(fuzz_flags, bulk_flags, flow_flags, corpus_seed, diag);
  }

  // Transforming subcommands are canned single-pass pipelines.
  std::string script;
  if (command == "sweep" || command == "strash" || command == "regsweep" ||
      command == "decompose-en" || command == "decompose-sync") {
    script = command;
  } else if (command == "map") {
    script = str_format("map(k=%u,d=%lld)", lut_k,
                        static_cast<long long>(lut_delay));
  } else if (command == "retime") {
    script = str_format("%s(d=%lld", windowed ? "retime-windowed" : "retime",
                        static_cast<long long>(lut_delay));
    if (windowed) {
      if (window_size > 0) script += str_format(",window-size=%zu", window_size);
      if (window_count > 0) script += str_format(",windows=%zu", window_count);
      if (window_jobs > 0) script += str_format(",window-jobs=%zu", window_jobs);
    }
    if (minperiod) script += ",minperiod";
    if (no_sharing) script += ",no-sharing";
    if (target_period != 0) {
      script += str_format(",target=%lld",
                           static_cast<long long>(target_period));
    }
    if (cslow > 0) {
      script += str_format(",cslow=%u", cslow);
      // A C-slowed netlist interleaves C streams, so the flow-level
      // input-vs-output spot check cannot apply; --verify maps to the
      // pass's stream-equivalence + ternary-BMC self-check instead.
      if (flow_flags.verify) {
        script += ",cslow-verify";
        flow_flags.verify = false;
      }
    }
    script += ")";
  }
  if (!script.empty()) {
    if (files.size() < 2) return usage();
    return run_flow(script, files[0], files[1], flow_flags, diag);
  }

  const auto input = load_blif_netlist(files[0], diag);
  if (!input) return 1;

  if (command == "stats") return cmd_stats(*input);
  if (command == "classes") return cmd_classes(*input);
  if (command == "dot") {
    if (files.size() < 2) return usage();
    if (!write_dot_file(*input, files[1])) {
      diag.error(files[1], "cannot write file");
      return 1;
    }
    return 0;
  }
  if (command == "timing") {
    Netlist timed = *input;
    set_default_lut_delays(timed, lut_delay);
    const auto paths = worst_paths(timed, 5);
    std::fputs(format_timing_report(timed, paths).c_str(), stdout);
    return 0;
  }

  if (command == "check") {
    if (files.size() < 2) return usage();
    const auto other = load_blif_netlist(files[1], diag);
    if (!other) return 1;
    const auto sim = check_sequential_equivalence(*input, *other, {});
    std::printf("simulation: %s (%zu defined outputs)%s%s\n",
                sim.equivalent ? "EQUIVALENT" : "DIFFERENT",
                sim.compared_defined_outputs,
                sim.equivalent ? "" : " - ",
                sim.counterexample.c_str());
    if (bmc_depth > 0) {
      TernaryBmcOptions bo;
      bo.depth = bmc_depth;
      bo.x_refinement_ok = bmc_x_ok;
      bo.cancel = &g_interrupt;
      const auto bmc = check_ternary_bmc(*input, *other, bo);
      const char* verdict =
          bmc.verdict == TernaryBmcResult::Verdict::kEquivalentUpToDepth
              ? "EQUIVALENT (bounded)"
          : bmc.verdict == TernaryBmcResult::Verdict::kMismatch ? "DIFFERENT"
          : bmc.verdict == TernaryBmcResult::Verdict::kResourceLimit
              ? "RESOURCE-LIMIT"
              : "UNSUPPORTED";
      std::printf("bmc[%zu]:    %s (%s)\n", bmc_depth, verdict,
                  bmc.detail.c_str());
      if (bmc.verdict == TernaryBmcResult::Verdict::kMismatch) return 1;
    }
    if (formal) {
      const auto fv = check_formal_equivalence(*input, *other, {});
      const char* verdict =
          fv.verdict == FormalResult::Verdict::kEquivalent  ? "EQUIVALENT"
          : fv.verdict == FormalResult::Verdict::kMismatch ? "DIFFERENT"
                                                           : "UNSUPPORTED";
      std::printf("formal:     %s (%s)\n", verdict, fv.detail.c_str());
      return fv.verdict == FormalResult::Verdict::kEquivalent && sim.equivalent
                 ? 0
                 : 1;
    }
    return sim.equivalent ? 0 : 1;
  }

  return usage();
}
