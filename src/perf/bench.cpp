#include "perf/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <vector>

#include "base/cancel.h"
#include "base/timer.h"
#include "mcretime/lower.h"
#include "mcretime/mc_retime.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"
#include "window/windowed_retime.h"
#include "workload/generator.h"

namespace mcrt {
namespace {

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

Json phases_json(const PhaseProfile& profile) {
  Json object = Json::object();
  for (const std::string& phase : profile.phases()) {
    object.set(phase, profile.seconds(phase));
  }
  return object;
}

// Workload circuits come delay-less; unit-delay LUTs give the retimers a
// real timing problem. Constants get the delay too, which is this
// bench's own convention (the retime pass leaves them at 0).
void apply_unit_delays(Netlist& circuit) {
  for (std::uint32_t v = 0; v < circuit.node_count(); ++v) {
    const NodeId id{v};
    if (circuit.node(id).kind == NodeKind::kLut) {
      circuit.set_node_delay(id, 10);
    }
  }
}

struct WindowBenchCase {
  std::size_t target_gates;
  std::size_t window_size;
  std::size_t jobs;                ///< 0 = one worker per hardware thread
  double monolithic_cap_seconds;   ///< 0 = run the monolithic solver to completion
};

// Sizes where the monolithic solver still completes give genuine same-host
// speedup ratios (both engines measured on the same machine, so the ratio
// is gate-stable). The capped headline entry only appears in full runs —
// baselines are quick-mode, so it never enters the regression gate.
std::vector<WindowBenchCase> window_bench_suite(const BenchOptions& options) {
  std::vector<WindowBenchCase> suite = {
      {2000, 512, 0, 0.0},
      {4000, 512, 0, 0.0},
  };
  if (!options.quick) {
    suite.push_back({8000, 512, 0, 0.0});
    // The bench contract's headline: >= 1e5 gates, 8 window workers. The
    // monolithic solver runs under a deadline; if it hits it, the
    // recorded speedup is a lower bound.
    suite.push_back({100000, 1024, 8, 240.0});
  }
  return suite;
}

Json bench_window_case(const WindowBenchCase& bench_case,
                       std::uint64_t seed) {
  PhaseProfile phases;
  Netlist circuit;
  {
    ScopedPhase phase(phases, "generate");
    circuit = generate_circuit(
        scaled_profile(bench_case.target_gates, seed + bench_case.target_gates));
    apply_unit_delays(circuit);
  }

  // Shared preparation (mc-graph, §4.1 bounds, lowering) is excluded from
  // both timed columns: it is identical work on both sides.
  McRetimeOptions base;
  base.objective = McRetimeOptions::Objective::kMinPeriod;
  RetimeGraph global;
  {
    ScopedPhase phase(phases, "prepare");
    const McPrepared prepared = prepare_mc_graph(circuit, base);
    global = lower_to_retime_graph(prepared.graph, prepared.bounds);
  }

  // Monolithic minperiod, optionally under a deadline.
  CancelToken deadline;
  if (bench_case.monolithic_cap_seconds > 0) {
    deadline.set_timeout(bench_case.monolithic_cap_seconds);
  }
  bool capped = false;
  RetimeSolution mono;
  const RetimeWorkCounters work_before = retime_work_counters();
  Timer mono_timer;
  try {
    mono = minperiod_retime(global, FeasImpl::kCsr, &deadline);
  } catch (const CancelledError&) {
    capped = true;
  }
  const double mono_seconds = mono_timer.seconds();
  const RetimeWorkCounters work = retime_work_counters() - work_before;
  phases.add("monolithic", mono_seconds);

  // Windowed label solve (partition + per-window solves + refinement); the
  // internal "graph" phase repeats the shared preparation and is excluded
  // via the flow's own phase profile.
  WindowedRetimeOptions wopts;
  wopts.base = base;
  wopts.partition.max_window = bench_case.window_size;
  wopts.jobs = bench_case.jobs;
  wopts.solve_only = true;
  const WindowedRetimeResult windowed = retime_windowed(circuit, wopts);
  const double windowed_seconds =
      windowed.stats.profile.seconds("partition") +
      windowed.stats.profile.seconds("retime");
  phases.add("windowed_partition", windowed.stats.profile.seconds("partition"));
  phases.add("windowed_retime", windowed.stats.profile.seconds("retime"));

  // Verification: the stitched labels must be legal on the full bounded
  // graph, and where the monolithic optimum is known the windowed period
  // may not beat it (it would mean one side solved a different problem).
  bool identical = windowed.success &&
                   global.check_legal(windowed.labels).empty() &&
                   global.period(windowed.labels) ==
                       windowed.stats.period_after;
  if (!capped) {
    identical = identical && mono.feasible &&
                global.check_legal(mono.r).empty() &&
                windowed.stats.period_after >= mono.period;
  }

  Json entry = Json::object();
  entry.set("circuit", scaled_profile(bench_case.target_gates, 0).name);
  entry.set("vertices", global.vertex_count());
  entry.set("edges", global.edge_count());
  entry.set("registers", circuit.register_count());
  entry.set("windows", windowed.window_stats.windows);
  entry.set("cut_edges", windowed.window_stats.cut_edges);
  entry.set("window_size", bench_case.window_size);
  entry.set("window_jobs", bench_case.jobs);
  entry.set("monolithic_seconds", mono_seconds);
  entry.set("monolithic_capped", capped);
  entry.set("monolithic_feas_probes", work.feas_probes);
  entry.set("monolithic_feas_rounds", work.feas_rounds);
  entry.set("monolithic_dc_relaxations", work.dc_relaxations);
  entry.set("monolithic_wd_sweeps", work.wd_sweeps);
  entry.set("windowed_seconds", windowed_seconds);
  entry.set("period_windowed", windowed.stats.period_after);
  if (!capped) {
    entry.set("period_monolithic", mono.period);
    entry.set("period_gap_pct",
              mono.period > 0
                  ? 100.0 *
                        static_cast<double>(windowed.stats.period_after -
                                            mono.period) /
                        static_cast<double>(mono.period)
                  : 0.0);
  }
  entry.set("speedup_vs_monolithic",
            mono_seconds / std::max(windowed_seconds, 1e-12));
  entry.set("identical", identical);
  entry.set("phases", phases_json(phases));
  return entry;
}

Json options_json(const BenchOptions& options, int reps) {
  Json object = Json::object();
  object.set("quick", options.quick);
  object.set("seed", options.seed);
  object.set("repetitions", reps);
  return object;
}

// Geomean over every speedup column present in the entries.
Json summary_json(const Json::Array& entries) {
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
  Json summary = Json::object();
  summary.set("circuits", entries.size());
  if (!speedups.empty()) summary.set("geomean_speedup", geomean(speedups));
  summary.set("all_identical", all_identical);
  return summary;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// How bench_regressions gates one numeric column of a `schema` document.
enum class Gate { kNone, kExact, kNoRise };

Gate gate_for(const std::string& schema, const std::string& key) {
  if (schema == kBenchPaperSchema) {
    // Table 1-3 columns and the relocation attempts (with and without
    // global justification), which may not rise; the other figures, the
    // ablations and the times are reported.
    if (key == "fig5_attempts" || key == "fig5_local_only_attempts") {
      return Gate::kNoRise;
    }
    const bool table = key.rfind("t1_", 0) == 0 || key.rfind("t2_", 0) == 0 ||
                       key.rfind("t3_", 0) == 0;
    if (!table) return Gate::kNone;
    if (ends_with(key, "_delay")) return Gate::kExact;
    return ends_with(key, "_ff") || ends_with(key, "_lut") ? Gate::kNoRise
                                                           : Gate::kNone;
  }
  if (schema != kBenchWindowSchema) return Gate::kNone;
  // Window: solver outputs and work counters; the speedups time two engines
  // that each get faster on their own, so they are reported only.
  if (key == "period_monolithic" || key == "period_windowed") {
    return Gate::kExact;
  }
  return key.rfind("monolithic_", 0) == 0 && key != "monolithic_seconds"
             ? Gate::kNoRise
             : Gate::kNone;
}

}  // namespace

Json assemble_bench_report(const char* schema, const BenchOptions& options,
                           int reps, Json::Array entries) {
  Json summary = summary_json(entries);
  Json report = Json::object();
  report.set("schema", schema);
  report.set("options", options_json(options, reps));
  report.set("entries", Json(std::move(entries)));
  report.set("summary", std::move(summary));
  return report;
}

Json run_window_bench(const BenchOptions& options) {
  // Macro-scale runs (seconds to minutes): one rep per engine.
  const int reps = 1;
  Json::Array entries;
  for (const WindowBenchCase& bench_case : window_bench_suite(options)) {
    entries.push_back(bench_window_case(bench_case, options.seed + 300));
  }
  return assemble_bench_report(kBenchWindowSchema, options, reps,
                               std::move(entries));
}

std::string validate_bench_report(const Json& report,
                                  const std::string& schema) {
  if (!report.is_object()) return "report is not a JSON object";
  if (report.at("schema").as_string() != schema) {
    return "schema mismatch: expected " + schema + ", got '" +
           report.at("schema").as_string() + "'";
  }
  // The paper suite measures results, not speed: it has no speedup columns.
  const bool paper = schema == kBenchPaperSchema;
  const Json::Array& entries = report.at("entries").as_array();
  if (entries.empty()) return "no entries";
  for (const Json& entry : entries) {
    const std::string& circuit = entry.at("circuit").as_string();
    if (circuit.empty()) return "entry without a circuit name";
    bool has_speedup = false;
    for (const auto& [key, value] : entry.as_object()) {
      if (key.rfind("speedup", 0) == 0) {
        if (!value.is_number() || value.as_number() <= 0) {
          return circuit + ": non-positive " + key;
        }
        has_speedup = true;
      }
      if (ends_with(key, "_equivalent") && !value.as_bool()) {
        return circuit + ": not equivalent (" + key + "=false)";
      }
    }
    if (!has_speedup && !paper) return circuit + ": no speedup column";
    // A bench where the engines disagreed measured two different
    // computations; the numbers are meaningless.
    if (!entry.at("identical").as_bool()) {
      const std::string& error = entry.at("error").as_string();
      return circuit + ": " +
             (error.empty() ? "engines diverged (identical=false)" : error);
    }
  }
  if (!paper && report.at("summary").at("geomean_speedup").as_number() <= 0) {
    return "summary missing geomean_speedup";
  }
  return "";
}

std::vector<std::string> bench_regressions(const Json& current,
                                           const Json& baseline) {
  std::vector<std::string> regressions;
  const std::string& schema = baseline.at("schema").as_string();
  if (current.at("schema").as_string() != schema) {
    regressions.push_back("schema mismatch: current '" +
                          current.at("schema").as_string() + "' vs baseline '" +
                          schema + "'");
    return regressions;
  }
  const auto check = [&](const std::string& label, const Json& cur_obj,
                         const Json& base_obj) {
    for (const auto& [key, base_value] : base_obj.as_object()) {
      const Gate gate = gate_for(schema, key);
      if (gate == Gate::kNone || !base_value.is_number()) continue;
      const Json* cur_value = cur_obj.find(key);
      if (cur_value == nullptr || !cur_value->is_number()) {
        regressions.push_back(label + ": column " + key +
                              " missing from current report");
        continue;
      }
      const double base = base_value.as_number();
      const double cur = cur_value->as_number();
      char buf[160];
      if (gate == Gate::kExact && cur != base) {
        std::snprintf(buf, sizeof(buf), "%s: %s changed %.0f -> %.0f",
                      label.c_str(), key.c_str(), base, cur);
        regressions.emplace_back(buf);
      } else if (gate == Gate::kNoRise && cur > base) {
        std::snprintf(buf, sizeof(buf), "%s: %s rose %.0f -> %.0f",
                      label.c_str(), key.c_str(), base, cur);
        regressions.emplace_back(buf);
      }
    }
  };
  for (const Json& base_entry : baseline.at("entries").as_array()) {
    const std::string& circuit = base_entry.at("circuit").as_string();
    const Json* cur_entry = nullptr;
    for (const Json& candidate : current.at("entries").as_array()) {
      if (candidate.at("circuit").as_string() == circuit) {
        cur_entry = &candidate;
        break;
      }
    }
    if (cur_entry == nullptr) {
      regressions.push_back(circuit + ": missing from current report");
      continue;
    }
    check(circuit, *cur_entry, base_entry);
  }
  check("summary", current.at("summary"), baseline.at("summary"));
  return regressions;
}

std::string write_bench_report(const Json& report) {
  std::string out = "{\n";
  const Json::Object& members = report.as_object();
  for (std::size_t m = 0; m < members.size(); ++m) {
    const auto& [key, value] = members[m];
    out += "  \"" + key + "\": ";
    if (key == "entries" && value.is_array()) {
      out += "[\n";
      const Json::Array& entries = value.as_array();
      for (std::size_t e = 0; e < entries.size(); ++e) {
        out += "    " + entries[e].write();
        if (e + 1 < entries.size()) out += ",";
        out += "\n";
      }
      out += "  ]";
    } else {
      out += value.write();
    }
    if (m + 1 < members.size()) out += ",";
    out += "\n";
  }
  out += "}\n";
  return out;
}

}  // namespace mcrt
