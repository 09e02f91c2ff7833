#include "perf/bench.h"

#include <cstdio>
#include <string_view>

namespace mcrt {
namespace {

Json options_json(const BenchOptions& options, int reps) {
  Json object = Json::object();
  object.set("quick", options.quick);
  object.set("repetitions", reps);
  return object;
}

Json summary_json(const Json::Array& entries) {
  bool all_identical = true;
  for (const Json& entry : entries) {
    all_identical = all_identical && entry.at("identical").as_bool();
  }
  Json summary = Json::object();
  summary.set("circuits", entries.size());
  summary.set("all_identical", all_identical);
  return summary;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// How bench_regressions gates one numeric column.
enum class Gate { kNone, kExact, kNoRise };

Gate gate_for(const std::string& key) {
  // Table 1-3 columns and the relocation attempts (with and without global
  // justification), which may not rise; the other figures, the ablations
  // and the times are reported.
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

}  // namespace

Json assemble_bench_report(const BenchOptions& options, int reps,
                           Json::Array entries) {
  Json summary = summary_json(entries);
  Json report = Json::object();
  report.set("schema", kBenchPaperSchema);
  report.set("options", options_json(options, reps));
  report.set("entries", Json(std::move(entries)));
  report.set("summary", std::move(summary));
  return report;
}

std::string validate_bench_report(const Json& report) {
  if (!report.is_object()) return "report is not a JSON object";
  const std::string& schema = report.at("schema").as_string();
  if (schema != kBenchPaperSchema) {
    return std::string("schema mismatch: expected ") + kBenchPaperSchema +
           ", got '" + schema + "'";
  }
  const Json::Array& entries = report.at("entries").as_array();
  if (entries.empty()) return "no entries";
  for (const Json& entry : entries) {
    const std::string& circuit = entry.at("circuit").as_string();
    if (circuit.empty()) return "entry without a circuit name";
    for (const auto& [key, value] : entry.as_object()) {
      if (ends_with(key, "_equivalent") && !value.as_bool()) {
        return circuit + ": not equivalent (" + key + "=false)";
      }
    }
    // A flow that failed or diverged measured nothing; its numbers are
    // meaningless.
    if (!entry.at("identical").as_bool()) {
      const std::string& error = entry.at("error").as_string();
      return circuit + ": " +
             (error.empty() ? "engines diverged (identical=false)" : error);
    }
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
      const Gate gate = gate_for(key);
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
