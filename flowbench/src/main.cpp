// flowbench: runs one workload of the flow benchmark and prints its
// metrics. Usage:
//
//   flowbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--jobs J]
//
// Set-up generates the workload's designs from the seed and writes them as
// input BLIF (15 times; the median is setup_s). Then whole passes over the
// designs run until S seconds have passed. Untraced (--trace 0), every
// pass calls the library's retimers directly and the end-to-end metrics
// are printed. Traced (--trace 1), untraced and traced passes alternate:
// the traced pass re-drives mc_retime from its public layer calls with a
// span around each, must reproduce the untraced result exactly, and the
// per-layer metrics are printed. Outputs are checked after the timed
// passes. The last stdout line is one JSON object; the exit code is 0 only
// when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "blif/blif.h"
#include "flowbench.h"

namespace fs = std::filesystem;
using namespace mcrt;
using namespace mcrt::flowbench;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::size_t jobs = 2;
};

constexpr std::size_t kSetups = 15;

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--jobs") {
      args->jobs = std::strtoull(value.c_str(), &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->jobs > 0;
}

struct Pass {
  bool traced = false;
  std::vector<DesignRun> runs;
  double flow_s = 0.0;
  double retime_s = 0.0;
  Trace trace;
};

std::string fixed(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            fixed("%.17g", metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flowbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--jobs J]\n");
    return 2;
  }
  Workload workload;
  if (!make_workload(args.workload, &workload)) {
    std::fprintf(stderr, "flowbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const fs::path dir = fs::path(args.work_dir) /
                       (workload.name + "-s" + std::to_string(args.seed));
  fs::create_directories(dir / "in");
  fs::create_directories(dir / "out");
  std::vector<std::string> names;
  for (const CircuitProfile& p : workload.designs) names.push_back(p.name);
  const auto in_path = [&](std::size_t d) {
    return (dir / "in" / (names[d] + ".blif")).string();
  };
  const auto out_path = [&](std::size_t d) {
    return (dir / "out" / (names[d] + ".blif")).string();
  };

  // --- set-up: generate the designs and write the input BLIF --------------
  std::vector<double> setup_times;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const Clock::time_point start = Clock::now();
    for (std::size_t d = 0; d < workload.designs.size(); ++d) {
      const std::string text = reorder_blif(
          write_blif_string(generate_circuit(workload.designs[d]), names[d]),
          args.seed * 1000003 + d);
      std::ofstream file(in_path(d));
      file << text;
      if (!file) {
        std::fprintf(stderr, "flowbench: cannot write %s\n",
                     in_path(d).c_str());
        return 1;
      }
    }
    setup_times.push_back(since(start));
  }

  // --- timed passes ----------------------------------------------------------
  std::vector<Pass> passes;
  const Clock::time_point measure_start = Clock::now();
  while (true) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    Pass& pass = passes.emplace_back();
    pass.traced = traced;
    const Clock::time_point start = Clock::now();
    for (std::size_t d = 0; d < workload.designs.size(); ++d) {
      pass.trace.set_design(d);
      pass.runs.push_back(run_design(workload.flow, in_path(d), out_path(d),
                                     args.jobs, traced ? &pass.trace : nullptr,
                                     passes.size() == 1));
      if (traced) pass.trace.close_design();
      pass.retime_s += pass.runs.back().retime_s;
    }
    pass.flow_s = since(start);
    std::fprintf(stderr, "pass %zu%s: %.4f s\n", passes.size(),
                 traced ? " (traced)" : "", pass.flow_s);
    const bool have_traced = !args.trace || passes.size() >= 2;
    if (since(measure_start) >= args.seconds && have_traced) break;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // --- checks ----------------------------------------------------------------
  // A design fails if its flow failed in any pass, if any pass (traced
  // replay included) disagrees with the first, or if its output fails a
  // check that does not come from the retimer.
  std::vector<std::string> failures;
  std::vector<bool> design_failed(names.size(), false);
  std::size_t attempted = 0;
  std::size_t failed_runs = 0;
  const std::vector<DesignRun>& first = passes.front().runs;
  for (const Pass& pass : passes) {
    for (std::size_t d = 0; d < names.size(); ++d) {
      const DesignRun& r = pass.runs[d];
      const DesignRun& f = first[d];
      ++attempted;
      std::string why;
      if (!r.ok) {
        why = r.error;
      } else if (f.ok && (r.attempts != f.attempts ||
                          r.reported_period != f.reported_period ||
                          r.period != f.period || r.ff != f.ff ||
                          r.lut != f.lut || r.moved_layers != f.moved_layers ||
                          !(r.retimed_hash == f.retimed_hash) ||
                          !(r.output_hash == f.output_hash))) {
        why = pass.traced ? "traced replay differs from mc_retime"
                          : "pass differs from the first pass";
      }
      if (!why.empty()) {
        ++failed_runs;
        design_failed[d] = true;
        failures.push_back(names[d] + ": " + why);
      }
    }
  }
  std::string notes;
  const Clock::time_point check_start = Clock::now();
  const bool bmc = workload.name == "paper_table2";
  for (std::size_t d = 0; d < names.size(); ++d) {
    if (!first[d].ok) continue;
    const auto bad = check_design(names[d], first[d], bmc, &notes);
    if (!bad.empty()) {
      if (!design_failed[d]) ++failed_runs;
      design_failed[d] = true;
      failures.insert(failures.end(), bad.begin(), bad.end());
    }
  }
  notes += "checks took " + fixed("%.2f", since(check_start)) + " s\n";
  const Pass* traced_first = nullptr;
  for (const Pass& pass : passes) {
    if (!pass.traced) continue;
    if (traced_first == nullptr) {
      traced_first = &pass;
    } else if (pass.trace.counters() != traced_first->trace.counters()) {
      failures.push_back("layer counters differ between traced passes");
      ++failed_runs;
    }
  }

  // --- report ----------------------------------------------------------------
  std::printf("workload %s, seed %llu: %zu passes in %.2f s\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              passes.size(), since(measure_start));
  std::printf("%-8s %9s %9s %8s %7s %7s %7s\n", "design", "flow_s",
              "retime_s", "attempts", "period", "FF", "LUT");
  std::int64_t period_sum = 0;
  std::size_t ff_sum = 0;
  std::size_t lut_sum = 0;
  std::vector<double> untraced_flow;
  std::vector<double> untraced_retime;
  for (const Pass& pass : passes) {
    if (pass.traced) continue;
    untraced_flow.push_back(pass.flow_s);
    untraced_retime.push_back(pass.retime_s);
  }
  for (std::size_t d = 0; d < names.size(); ++d) {
    std::vector<double> flow_s;
    std::vector<double> retime_s;
    for (const Pass& pass : passes) {
      if (pass.traced) continue;
      flow_s.push_back(pass.runs[d].flow_s);
      retime_s.push_back(pass.runs[d].retime_s);
    }
    const DesignRun& f = first[d];
    period_sum += f.period;
    ff_sum += f.ff;
    lut_sum += f.lut;
    std::printf("%-8s %9.4f %9.4f %8zu %7lld %7zu %7zu%s\n", names[d].c_str(),
                median(flow_s), median(retime_s), f.attempts,
                static_cast<long long>(f.period), f.ff, f.lut,
                design_failed[d] ? "  FAILED" : "");
  }
  std::printf("%-8s %9.4f %9.4f %8s %7lld %7zu %7zu\n", "total",
              median(untraced_flow), median(untraced_retime), "",
              static_cast<long long>(period_sum), ff_sum, lut_sum);
  if (!notes.empty()) std::fprintf(stderr, "%s", notes.c_str());
  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAILED %s\n", f.c_str());
  }

  const std::size_t ok_designs = static_cast<std::size_t>(
      std::count(design_failed.begin(), design_failed.end(), false));
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"flow_s", median(untraced_flow), "s"},
        {"retime_s", median(untraced_retime), "s"},
        {"period_sum", static_cast<double>(period_sum), "delay_units"},
        {"ff_sum", static_cast<double>(ff_sum), "count"},
        {"lut_sum", static_cast<double>(lut_sum), "count"},
        {"ok_frac",
         static_cast<double>(ok_designs) / static_cast<double>(names.size()),
         "fraction"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // Tracing overhead pairs each traced pass with the untraced pass just
    // before it, so that drift in machine speed cancels.
    std::vector<double> overhead;
    std::map<std::string, std::vector<double>> layer_times;
    for (std::size_t i = 1; i < passes.size(); ++i) {
      if (!passes[i].traced) continue;
      overhead.push_back(passes[i].flow_s - passes[i - 1].flow_s);
      for (const auto& [layer, s] : passes[i].trace.layer_seconds()) {
        layer_times[layer].push_back(s);
      }
    }
    for (const std::string& layer : kLayers) {
      metrics.push_back({layer + "_s", median(layer_times[layer]), "s"});
    }
    metrics.push_back({"trace.overhead_s", median(overhead), "s"});
    const auto& c = traced_first->trace.counters();
    const auto counter = [&](const std::string& name) {
      const auto it = c.find(name);
      return it == c.end() ? 0.0 : it->second;
    };
    for (const char* name :
         {"tech.luts", "tech.depth", "mcretime.classes", "mcretime.vertices",
          "mcretime.edges", "mcretime.possible_steps", "mcretime.bounds_capped",
          "mcretime.separators", "retime.period_constraints",
          "mcretime.attempts", "mcretime.local_justifications",
          "mcretime.global_justifications", "mcretime.backward_steps",
          "mcretime.forward_steps", "window.windows", "window.cut_edges",
          "window.refine_accepted", "window.window_resolves",
          "window.global_fallbacks"}) {
      metrics.push_back({name, counter(name), "count"});
    }
    const auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 1.0;
    };
    metrics.push_back({"mcretime.relocate_success_ratio",
                       ratio(counter("mcretime.relocations_ok"),
                             counter("mcretime.attempts")),
                       "ratio"});
    metrics.push_back(
        {"mcretime.local_justify_ratio",
         ratio(counter("mcretime.local_justifications"),
               counter("mcretime.local_justifications") +
                   counter("mcretime.global_justifications")),
         "ratio"});
    std::printf("%-28s %10s\n", "layer (traced pass median)", "seconds");
    for (const Metric& m : metrics) {
      if (m.unit == "s") std::printf("%-28s %10.5f\n", m.name.c_str(), m.value);
    }
    const std::string trace_path = (dir / "trace.json").string();
    if (traced_first->trace.write_chrome_json(trace_path, names)) {
      std::printf("chrome trace of the first traced pass: %s\n",
                  trace_path.c_str());
    }
  }
  const bool correct = failures.empty();
  print_result(correct, attempted, std::min(failed_runs, attempted), metrics);
  return correct ? 0 : 1;
}
