// mcrt - command-line front end for the multiple-class retiming library.
//
// usage() is the command and flag reference, and kOptions declares every
// flag once. The transforming subcommands (sweep ... retime) are one-pass
// shorthands: `mcrt retime --minperiod in out` runs exactly
// `mcrt flow "retime(minperiod)" in out`.
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "base/cancel.h"
#include "base/json.h"
#include "base/strings.h"
#include "base/thread_pool.h"
#include "base/version.h"
#include "blif/blif.h"
#include "netlist/dot_export.h"
#include "mcretime/register_class.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/diagnostics.h"
#include "pipeline/pass_manager.h"
#include "perf/bench.h"
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

/// Every command; an option row's command set indexes this list.
constexpr std::string_view kCommandNames[] = {
    "stats", "classes", "timing", "dot", "sweep", "strash", "regsweep",
    "map", "retime", "decompose-en", "decompose-sync", "check", "flow",
    "bulk", "corpus", "fuzz", "bench"};

/// A set of commands, one bit per kCommandNames entry.
using CommandSet = std::uint32_t;

constexpr CommandSet command_bit(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kCommandNames); ++i) {
    if (kCommandNames[i] == name) return CommandSet{1} << i;
  }
  return 0;
}

std::string command_names(CommandSet set, const char* separator) {
  std::string names;
  for (std::size_t i = 0; i < std::size(kCommandNames); ++i) {
    if ((set >> i & 1) == 0) continue;
    if (!names.empty()) names += separator;
    names += kCommandNames[i];
  }
  return names;
}

/// The command and flag reference; %s is the list of commands.
constexpr const char* kUsage =
    R"usage(usage: mcrt <%s> [options] <in.blif> [out.blif]
Value flags take "--flag value" or "--flag=value"; a flag the command does
not read is an error.
  sweep|strash|regsweep|decompose-en|decompose-sync|map|retime in out:
          shorthand for mcrt flow "<pass>(<keys>)" in out, each pass flag
          one key as typed: retime --target 24 --no-sharing runs
          "retime(target=24,no-sharing)"
  map:    -k <lut_inputs=4>  -d <lut_delay=10>
  retime: -d <lut_delay=10>  --minperiod  --no-sharing  --target <period>
  timing: -d <lut_delay=10>
  check:  --formal  --bmc <depth>  --bmc-x-ok (treat a defined output
          refining an X as benign)
  flow:   mcrt flow "<script>" in.blif out.blif, script pass[(arg,key=val)];
          pass; ... e.g. "sweep; strash; retime(target=24,no-sharing); map"
          --profile (per-pass timing; also the shorthands)
  flow, shorthands and bulk:
          --verify (per-pass equivalence spot check)  --no-validate
          --timeout <s>       per-flow/per-job deadline (also fuzz)
          --budget-bdd <n>    BDD node cap for verification
          --budget-bmc <n>    BMC unroll depth cap
  bulk:   mcrt bulk "<script>" [--jobs N] [--out-dir D] [--report F]
          [--canonical] [--manifest F [--resume]] <in|dir>...
  corpus: mcrt corpus <out-dir> [--count N] [--seed S] [--gates G]
          (--gates adds one ~G-LUT scaled design)
  fuzz:   mcrt fuzz [--budget-s S] [--cases N] [--seed S] [--oracle O]
          [--out-dir D] [--report F] [--canonical]: differential fuzzing of
          O = serial-vs-bulk|engine-vs-reference
          (default all); failures become reproducers in --out-dir.
          mcrt fuzz --repro <file> [--update] replays (and re-minimizes) one;
          with an explicit --seed it first regenerates that case into <file>
          --plant-bug <spec> sabotages an engine (fuzzer self-tests only)
  bench:  mcrt bench [--quick] [--out-dir D] [--baseline <dir>]:
          paper tables/figures, writes BENCH_paper.json
  mcrt --version prints version, build type and sanitizers
)usage";

int usage() {
  std::fprintf(stderr, kUsage, command_names(~CommandSet{0}, "|").c_str());
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
  bool no_validate = false;
  double timeout_seconds = 0;  ///< per-flow (or per-bulk-job) deadline
  std::size_t budget_bdd = 0;  ///< BDD node cap (0 = unlimited)
  std::size_t budget_bmc = 0;  ///< BMC unroll depth cap

  [[nodiscard]] ResourceBudgets budgets() const {
    return {budget_bdd, budget_bmc};
  }
};

/// Pass-manager options of the flow and bulk commands: --no-validate,
/// --verify and one equivalence spot-check effort for both.
PassManagerOptions manager_options(const FlowFlags& flags) {
  PassManagerOptions options;
  options.check_invariants = !flags.no_validate;
  options.check_equivalence = flags.verify;
  options.equivalence.runs = 2;
  options.equivalence.cycles = 48;
  return options;
}

/// Shared driver for `flow` and the shorthand subcommands: the script
/// runs as one job of the executor `mcrt bulk` uses, with its diagnostics
/// streamed to stderr while it runs.
int run_flow(const std::string& script, const std::string& in_path,
             const std::string& out_path, const FlowFlags& flags,
             StreamDiagnostics& diag) {
  JobExecutionOptions options;
  options.manager = manager_options(flags);
  options.manager.verbose = true;
  options.timeout_seconds = flags.timeout_seconds;
  options.cancel = &g_interrupt;
  options.budgets = flags.budgets();

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
};

/// Expands each input (a .blif file or a directory scanned for *.blif,
/// sorted) into bulk jobs writing to `out_dir` (if given). Deterministic
/// job order: inputs as given, directory entries sorted by name. Reports
/// and returns nullopt on an unlistable directory, colliding outputs or no
/// circuits at all.
std::optional<std::vector<BulkJob>> collect_bulk_jobs(
    const std::vector<std::string>& inputs, const std::string& out_dir,
    DiagnosticsSink& diag) {
  namespace fs = std::filesystem;
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
        return std::nullopt;
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
        return std::nullopt;
      }
    }
  }
  if (jobs.empty()) {
    diag.error("bulk", "no input circuits");
    return std::nullopt;
  }
  return jobs;
}

/// Writes a --report file; reports and returns false when it cannot.
bool write_report(const std::string& path, const std::string& text,
                  DiagnosticsSink& diag) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) diag.error(path, "cannot write report");
  return static_cast<bool>(out);
}

int cmd_bulk(const std::string& script, const std::vector<std::string>& inputs,
             const BulkFlags& bulk, const FlowFlags& flags,
             StreamDiagnostics& diag) {
  if (bulk.resume && bulk.manifest_path.empty()) {
    diag.error("bulk", "--resume needs --manifest: there is no checkpoint "
                       "to resume from");
    return 2;
  }
  const auto jobs = collect_bulk_jobs(inputs, bulk.out_dir, diag);
  if (!jobs) return 2;

  BulkOptions options;
  options.jobs = bulk.jobs;
  options.manager = manager_options(flags);
  options.timeout_seconds = flags.timeout_seconds;
  options.cancel = &g_interrupt;
  options.manifest_path = bulk.manifest_path;
  options.resume = bulk.resume;
  options.budgets = flags.budgets();
  BulkRunner runner(script, options);
  if (const auto error = runner.check()) {
    diag.error("bulk", *error);
    return 2;
  }
  const BulkReport report = runner.run(*jobs);
  for (const std::string& warning : report.warnings) {
    diag.warning("bulk", warning);
  }
  if (!report.error.empty()) {
    diag.error("bulk", report.error);
    return 2;
  }

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

  if (!bulk.report_path.empty() &&
      !write_report(bulk.report_path,
                    report.to_json({.canonical = bulk.canonical}), diag)) {
    return 1;
  }
  return report.failed() == 0 ? 0 : 1;
}

int cmd_corpus(const std::string& out_dir, std::size_t count,
               std::size_t scaled_gates, std::uint64_t seed,
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

constexpr const char* kBenchPaperFile = "BENCH_paper.json";

struct BenchFlags {
  bool quick = false;          ///< trimmed suite + fewer reps (CI smoke)
  std::string out_dir = ".";   ///< where BENCH_paper.json lands
  std::string baseline_dir;    ///< committed BENCH_paper.json to gate against
};

/// The --baseline gate of `bench`: reads the committed BENCH_paper.json from
/// the baseline directory, validates it, and reports every
/// bench_regressions() finding of `current`. Returns true when the baseline
/// is readable, valid and not regressed.
bool gate_against_baseline(const Json& current, const BenchFlags& flags,
                           DiagnosticsSink& diag) {
  const std::string path =
      (std::filesystem::path(flags.baseline_dir) / kBenchPaperFile).string();
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    diag.error("bench", "cannot read baseline " + path);
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto parsed = Json::parse(text);
  if (const auto* err = std::get_if<JsonParseError>(&parsed)) {
    diag.error("bench", path + ": " + err->message);
    return false;
  }
  const Json& baseline = std::get<Json>(parsed);
  const std::string problem = validate_bench_report(baseline);
  if (!problem.empty()) {
    diag.error("bench", path + ": " + problem);
    return false;
  }
  const std::vector<std::string> regressions =
      bench_regressions(current, baseline);
  for (const std::string& regression : regressions) {
    diag.error("bench", std::string(kBenchPaperFile) + ": " + regression);
  }
  return regressions.empty();
}

int cmd_bench(const BenchFlags& flags, StreamDiagnostics& diag) {
  std::printf("bench: running paper suite (%s)...\n",
              flags.quick ? "quick" : "full");
  const Json report = run_paper_bench({flags.quick});
  const std::string problem = validate_bench_report(report);
  if (!problem.empty()) {
    diag.error("bench", "paper: " + problem);
    return 1;
  }
  // The Table 2 columns, on the entries that have them.
  for (const Json& entry : report.at("entries").as_array()) {
    std::string line =
        str_format("  %-11s", entry.at("circuit").as_string().c_str());
    for (const auto& [key, value] : entry.as_object()) {
      if (key == "t2_ff" || key == "t2_lut" || key == "t2_delay") {
        line += str_format(" %s=%lld", key.c_str(),
                           static_cast<long long>(value.as_int()));
      }
    }
    std::printf("%s\n", line.c_str());
  }
  const Json& summary = report.at("summary");
  std::printf("  Table 2 vs Table 1: Rlut %.2f, Rdelay %.2f\n",
              summary.at("rlut").as_number(), summary.at("rdelay").as_number());

  std::error_code ec;
  std::filesystem::create_directories(flags.out_dir, ec);
  const std::string path =
      (std::filesystem::path(flags.out_dir) / kBenchPaperFile).string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << write_bench_report(report);
  if (!out.good()) {
    diag.error("bench", "cannot write " + path);
    return 1;
  }
  std::printf("  wrote %s\n", path.c_str());
  if (flags.baseline_dir.empty()) return 0;

  // Regression gate vs the committed baseline document (bench_regressions).
  if (!gate_against_baseline(report, flags, diag)) return 1;
  std::printf("bench: no regression vs baseline\n");
  return 0;
}

// ---------------------------------------------------------------------------
// fuzz: differential fuzzing across the engine pairs (src/fuzz/,
// docs/FUZZING.md).

struct FuzzFlags {
  std::size_t cases = 0;      ///< --cases (0 = run until the budget expires)
  double budget_seconds = 0;  ///< --budget-s (both zero => 60s default)
  std::string oracle;         ///< --oracle (empty = round-robin over all)
  std::string repro_path;     ///< --repro: replay (or materialize) one case
  bool update = false;        ///< --update: re-minimize + rewrite a failing repro
  std::string plant_bug;      ///< --plant-bug: sabotage spec (self-tests only)
};

/// Replays one reproducer. With an explicit --seed the case is first
/// regenerated from that 64-bit case seed and written to the path, so the
/// seed printed by a CI failure line materializes as a committable file.
int cmd_fuzz_repro(const FuzzFlags& fuzz, std::optional<std::uint64_t> seed,
                   const std::optional<OracleKind>& only,
                   const OracleOptions& oracle_options,
                   StreamDiagnostics& diag) {
  FuzzCase c;
  if (seed.has_value()) {
    c = generate_fuzz_case_from_seed(*seed,
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
             const FlowFlags& flags, std::optional<std::uint64_t> seed,
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
          "unknown oracle '%s' (serial-vs-bulk, engine-vs-reference)",
          fuzz.oracle.c_str()));
      return 2;
    }
  }

  if (!fuzz.repro_path.empty()) {
    return cmd_fuzz_repro(fuzz, seed, only, oracle_options, diag);
  }

  FuzzDriverOptions options;
  options.seed = seed.value_or(1);
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
    std::error_code ec;  // a bare file name has no directory to create
    std::filesystem::create_directories(
        std::filesystem::path(bulk.report_path).parent_path(), ec);
    if (!write_report(bulk.report_path, report.to_json(bulk.canonical) + "\n",
                      diag)) {
      return 1;
    }
  }
  std::printf("fuzz: %zu cases, %zu failures (seed %llu, %.1fs)\n",
              report.cases_run, report.failures,
              static_cast<unsigned long long>(report.seed),
              report.wall_seconds);
  return report.failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command-line options: kOptions declares every flag once.

/// Everything the command line sets. Each command reads the flag groups
/// its cmd_* function takes.
struct Options : FlowFlags, BulkFlags, BenchFlags, FuzzFlags {
  std::vector<std::string> files;  ///< positionals, in order
  /// A shorthand subcommand's pass keys (a repeated flag keeps the last
  /// value); a bare key has an empty value.
  std::map<std::string, std::string> pass_keys;
  std::optional<std::uint64_t> seed;  ///< --seed (default 1)
  std::size_t count = 10;       ///< corpus --count: random circuits
  std::size_t gates = 0;        ///< corpus --gates: one scaled design
  bool formal = false;          ///< check --formal: BDD fixpoint equivalence
  std::size_t bmc_depth = 0;    ///< check --bmc: ternary BMC depth (0 = off)
  bool bmc_x_ok = false;        ///< check --bmc-x-ok
  std::int64_t lut_delay = 10;  ///< timing -d: delay of delay-less LUTs
};

/// Parses a flag value strictly: the whole token must be the value, and a
/// number must be non-negative and fit `T`. Returns what it expected when
/// the token is not one, else an empty string.
template <typename T>
std::string parse_value(const std::string& text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = text;
  } else if constexpr (requires { out->emplace(); }) {  // std::optional
    typename T::value_type value{};
    std::string expected = parse_value(text, &value);
    if (expected.empty()) *out = value;
    return expected;
  } else {
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    // Up to 1e9 s (~31 years), a deadline stays within int64 nanoseconds.
    if (ec != std::errc() || stop != end || !(value >= T{}) ||
        (std::is_floating_point_v<T> && value > 1e9)) {
      if (std::is_floating_point_v<T>) return "a number from 0 to 1e9";
      return "a non-negative integer";
    }
    *out = value;
  }
  return {};
}

/// Applies a flag to Options; returns parse_value()'s expectation on a
/// malformed value, else an empty string.
using Setter = std::string (*)(Options&, const std::string& value);

/// The Setter of the Options field at member path `Path`: a bool field is
/// a switch the flag turns on, any other field parses the flag's value.
template <auto... Path>
std::string field(Options& options, const std::string& value) {
  auto& target = (options .* ... .* Path);
  if constexpr (std::is_same_v<std::remove_cvref_t<decltype(target)>, bool>) {
    target = true;
    return {};
  } else {
    return parse_value(value, &target);
  }
}

/// The Setter of bulk's --jobs: a worker count up to kMaxWorkerThreads.
std::string jobs_field(Options& options, const std::string& value) {
  std::size_t jobs = 0;
  std::string expected = parse_value(value, &jobs);
  if (!expected.empty()) return expected;
  if (jobs > kMaxWorkerThreads) {
    return "an integer from 0 to " + std::to_string(kMaxWorkerThreads);
  }
  options.jobs = jobs;
  return {};
}

/// The set of the space-separated command names in `names`; an unknown
/// name does not compile.
consteval CommandSet cmds(std::string_view names) {
  CommandSet set = 0;
  for (std::size_t start = 0; start <= names.size();) {
    const std::size_t end = std::min(names.find(' ', start), names.size());
    const CommandSet bit = command_bit(names.substr(start, end - start));
    if (bit == 0) throw "unknown command name";
    set |= bit;
    start = end + 1;
  }
  return set;
}

/// The shorthand subcommands: each runs one pass as a flow script.
constexpr CommandSet kShorthands =
    cmds("sweep strash regsweep decompose-en decompose-sync map retime");
/// Commands that run one flow job.
constexpr CommandSet kFlows = kShorthands | cmds("flow");
/// Commands whose flow jobs take the run flags (--verify, budgets, ...).
constexpr CommandSet kRunners = kFlows | cmds("bulk");

/// The characters of a flow-script word (pipeline/flow_script.h).
constexpr std::string_view kScriptWordChars =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-";

/// One flag: its spelling, whether it takes a value, the commands that read
/// it, and its target: the key it becomes in a shorthand's
/// `<pass>(key=value,...)` script, or the Setter of an Options field. A
/// spelling may have several rows, for disjoint commands.
struct OptionRow {
  std::string_view spelling;
  bool takes_value;
  CommandSet commands;
  std::variant<std::string_view, Setter> target;
};

constexpr OptionRow kOptions[] = {
    // Pass keys of the shorthand subcommands.
    {"-k", true, cmds("map"), "k"},
    {"-d", true, cmds("map retime"), "d"},
    {"--target", true, cmds("retime"), "target"},
    {"--minperiod", false, cmds("retime"), "minperiod"},
    {"--no-sharing", false, cmds("retime"), "no-sharing"},
    // Flow jobs.
    {"--profile", false, kFlows, field<&FlowFlags::profile>},
    {"--verify", false, kRunners, field<&FlowFlags::verify>},
    {"--no-validate", false, kRunners, field<&FlowFlags::no_validate>},
    {"--timeout", true, kRunners | cmds("fuzz"),
     field<&FlowFlags::timeout_seconds>},
    {"--budget-bdd", true, kRunners, field<&FlowFlags::budget_bdd>},
    {"--budget-bmc", true, kRunners, field<&FlowFlags::budget_bmc>},
    // Batches: bulk, and the batch outputs of fuzz.
    {"--jobs", true, cmds("bulk"), jobs_field},
    {"--out-dir", true, cmds("bulk fuzz"), field<&BulkFlags::out_dir>},
    {"--report", true, cmds("bulk fuzz"), field<&BulkFlags::report_path>},
    {"--canonical", false, cmds("bulk fuzz"), field<&BulkFlags::canonical>},
    {"--manifest", true, cmds("bulk"), field<&BulkFlags::manifest_path>},
    {"--resume", false, cmds("bulk"), field<&BulkFlags::resume>},
    // Generated workloads.
    {"--seed", true, cmds("corpus fuzz"), field<&Options::seed>},
    {"--count", true, cmds("corpus"), field<&Options::count>},
    {"--gates", true, cmds("corpus"), field<&Options::gates>},
    {"--budget-s", true, cmds("fuzz"), field<&FuzzFlags::budget_seconds>},
    {"--cases", true, cmds("fuzz"), field<&FuzzFlags::cases>},
    {"--oracle", true, cmds("fuzz"), field<&FuzzFlags::oracle>},
    {"--repro", true, cmds("fuzz"), field<&FuzzFlags::repro_path>},
    {"--update", false, cmds("fuzz"), field<&FuzzFlags::update>},
    {"--plant-bug", true, cmds("fuzz"), field<&FuzzFlags::plant_bug>},
    {"--quick", false, cmds("bench"), field<&BenchFlags::quick>},
    {"--out-dir", true, cmds("bench"), field<&BenchFlags::out_dir>},
    {"--baseline", true, cmds("bench"), field<&BenchFlags::baseline_dir>},
    // Circuit inspection.
    {"--formal", false, cmds("check"), field<&Options::formal>},
    {"--bmc", true, cmds("check"), field<&Options::bmc_depth>},
    {"--bmc-x-ok", false, cmds("check"), field<&Options::bmc_x_ok>},
    {"-d", true, cmds("timing"), field<&Options::lut_delay>},
};

/// Reads argv[2..] into `options`, or reports the first bad flag and
/// returns false: an unknown flag (with usage()), a flag `command` does not
/// read, a missing or malformed value, or a pass-key value that is not one
/// flow-script word (so it can neither end its argument list nor add keys).
bool parse_options(int argc, char** argv, const std::string& command,
                   Options& options, DiagnosticsSink& diag) {
  const auto fail = [&](const std::string& error) {
    diag.error(command, error);
    return false;
  };
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.empty() || flag[0] != '-') {
      options.files.push_back(std::move(flag));
      continue;
    }
    std::optional<std::string> value;  // long flags also take --flag=value
    if (const std::size_t eq = flag.find('=');
        starts_with(flag, "--") && eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    const OptionRow* row = nullptr;
    CommandSet readers = 0;
    for (const OptionRow& candidate : kOptions) {
      if (candidate.spelling != flag) continue;
      readers |= candidate.commands;
      if ((candidate.commands & command_bit(command)) != 0) row = &candidate;
    }
    if (readers == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage();
      return false;
    }
    if (row == nullptr) {
      return fail(str_format("%s is not an option of %s (only of %s)",
                             flag.c_str(), command.c_str(),
                             command_names(readers, ", ").c_str()));
    }
    if (value.has_value() && !row->takes_value) {
      return fail(flag + " takes no value");
    }
    if (!value.has_value() && row->takes_value) {
      if (i + 1 == argc) return fail(flag + ": missing value");
      value = argv[++i];
    }
    const std::string text = value.value_or("");
    std::string expected;
    if (const auto* key = std::get_if<std::string_view>(&row->target)) {
      if (row->takes_value && (text.empty() || text.find_first_not_of(
                                   kScriptWordChars) != std::string::npos)) {
        expected = "one flow-script word of [A-Za-z0-9_.-]";
      } else {
        options.pass_keys[std::string(*key)] = text;
      }
    } else {
      expected = std::get<Setter>(row->target)(options, text);
    }
    if (!expected.empty()) {
      return fail(str_format("%s: expected %s, got '%s'", flag.c_str(),
                             expected.c_str(), text.c_str()));
    }
  }
  return true;
}

/// The flow script a shorthand subcommand runs: `<pass>(key=value,...)`
/// with its pass keys as typed, so the pass's configure() is their only
/// validator and `mcrt retime ...` is the job `mcrt flow "retime(...)"` is.
std::string shorthand_script(const std::string& command,
                             const Options& options) {
  const std::map<std::string, std::string>& keys = options.pass_keys;
  std::string script = command;
  char separator = '(';
  for (const auto& [key, value] : keys) {
    script += separator + key + (value.empty() ? "" : "=" + value);
    separator = ',';
  }
  return keys.empty() ? script : script + ")";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--version") == 0 ||
                    std::strcmp(argv[1], "version") == 0)) {
    std::printf("%s\n", version_line().c_str());
    return 0;
  }
  if (argc < 2 || command_bit(argv[1]) == 0) return usage();
  const std::string command = argv[1];
  // `bench` and `fuzz` are self-contained (generated workloads, no circuit
  // files), so a bare `mcrt bench` / `mcrt fuzz` is a complete invocation.
  if (argc < 3 && command != "bench" && command != "fuzz") return usage();
  StreamDiagnostics diag(stderr);
  Options options;
  if (!parse_options(argc, argv, command, options, diag)) return 2;
  const std::vector<std::string>& files = options.files;

  // ctrl-C requests a clean cooperative stop: in-flight flows unwind at
  // their next engine poll and report "cancelled" instead of dying mid-write.
  std::signal(SIGINT, handle_sigint);
  // A reader that closes stdout early (`mcrt bulk ... | head`) must not
  // kill a batch midway; the writes to the pipe fail instead.
  std::signal(SIGPIPE, SIG_IGN);

  if (!files.empty() && (command_bit(command) & cmds("bench fuzz")) != 0) {
    return usage();  // these take no positionals
  }

  // `flow` positionals are script, input, output; everything else starts
  // with the input file.
  if (command == "flow") {
    if (files.size() < 3) return usage();
    return run_flow(files[0], files[1], files[2], options, diag);
  }
  if ((command_bit(command) & kShorthands) != 0) {
    if (files.size() < 2) return usage();
    return run_flow(shorthand_script(command, options), files[0], files[1],
                    options, diag);
  }
  if (command == "bulk") {
    if (files.size() < 2) return usage();
    const std::vector<std::string> inputs(files.begin() + 1, files.end());
    return cmd_bulk(files[0], inputs, options, options, diag);
  }
  if (command == "bench") return cmd_bench(options, diag);
  if (command == "fuzz") {
    return cmd_fuzz(options, options, options, options.seed, diag);
  }

  // The rest take an input file (corpus: the output directory).
  if (files.empty()) return usage();
  if (command == "corpus") {
    return cmd_corpus(files[0], options.count, options.gates,
                      options.seed.value_or(1), diag);
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
    set_default_lut_delays(timed, options.lut_delay);
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
    if (options.bmc_depth > 0) {
      TernaryBmcOptions bo;
      bo.depth = options.bmc_depth;
      bo.x_refinement_ok = options.bmc_x_ok;
      bo.cancel = &g_interrupt;
      const auto bmc = check_ternary_bmc(*input, *other, bo);
      const char* verdict =
          bmc.verdict == TernaryBmcResult::Verdict::kEquivalentUpToDepth
              ? "EQUIVALENT (bounded)"
          : bmc.verdict == TernaryBmcResult::Verdict::kMismatch ? "DIFFERENT"
          : bmc.verdict == TernaryBmcResult::Verdict::kResourceLimit
              ? "RESOURCE-LIMIT"
              : "UNSUPPORTED";
      std::printf("bmc[%zu]:    %s (%s)\n", options.bmc_depth, verdict,
                  bmc.detail.c_str());
      if (bmc.verdict == TernaryBmcResult::Verdict::kMismatch) return 1;
    }
    if (options.formal) {
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
