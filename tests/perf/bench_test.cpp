// Schema validation, regression gating and serialization of the bench
// harness. The heavy end-to-end run is covered by the cli_bench_quick smoke
// test; here the report-shape logic is pinned on hand-built documents.
#include "perf/bench.h"

#include <gtest/gtest.h>

#include <variant>

namespace mcrt {
namespace {

Json entry(const char* circuit, double speedup, bool identical = true) {
  Json e = Json::object();
  e.set("circuit", circuit);
  e.set("monolithic_seconds", 1.0);
  e.set("windowed_seconds", 1.0 / speedup);
  e.set("speedup_vs_monolithic", speedup);
  e.set("identical", identical);
  return e;
}

// A window entry with the gated columns: both periods and the monolithic
// solve's work counters.
Json window_entry(const char* circuit, double speedup, std::int64_t period,
                  std::size_t feas_rounds) {
  Json e = entry(circuit, speedup);
  e.set("period_monolithic", period);
  e.set("period_windowed", period);
  e.set("monolithic_feas_probes", std::size_t{7});
  e.set("monolithic_feas_rounds", feas_rounds);
  e.set("monolithic_dc_relaxations", std::size_t{5000});
  e.set("monolithic_wd_sweeps", std::size_t{1});
  return e;
}

// A C-slow entry: its speedup is a deterministic period ratio, gated as a
// ratio.
Json ratio_entry(const char* circuit, double speedup) {
  Json e = Json::object();
  e.set("circuit", circuit);
  e.set("speedup_throughput", speedup);
  e.set("identical", true);
  return e;
}

Json report(std::initializer_list<Json> entries, double geomean,
            const char* schema = kBenchWindowSchema) {
  Json::Array array;
  for (const Json& e : entries) array.push_back(e);
  Json summary = Json::object();
  summary.set("circuits", array.size());
  summary.set("geomean_speedup", geomean);
  summary.set("all_identical", true);
  Json doc = Json::object();
  doc.set("schema", schema);
  doc.set("options", Json::object());
  doc.set("entries", Json(std::move(array)));
  doc.set("summary", std::move(summary));
  return doc;
}

TEST(BenchReportTest, ValidReportPasses) {
  const Json doc = report({entry("C1", 2.5), entry("C2", 3.0)}, 2.7);
  EXPECT_EQ(validate_bench_report(doc, kBenchWindowSchema), "");
}

TEST(BenchReportTest, SchemaMismatchRejected) {
  const Json doc = report({entry("C1", 2.5)}, 2.5);
  EXPECT_NE(validate_bench_report(doc, kBenchCslowSchema), "");
}

TEST(BenchReportTest, DivergedEnginesRejected) {
  const Json doc = report({entry("C1", 2.5, /*identical=*/false)}, 2.5);
  const std::string problem = validate_bench_report(doc, kBenchWindowSchema);
  EXPECT_NE(problem.find("diverged"), std::string::npos) << problem;
}

TEST(BenchReportTest, EmptyAndMalformedRejected) {
  EXPECT_NE(validate_bench_report(Json("nope"), kBenchWindowSchema), "");
  EXPECT_NE(validate_bench_report(report({}, 1.0), kBenchWindowSchema), "");
  Json no_speedup = Json::object();
  no_speedup.set("circuit", "C1");
  no_speedup.set("identical", true);
  EXPECT_NE(validate_bench_report(report({no_speedup}, 1.0),
                                  kBenchWindowSchema),
            "");
}

// The ratio gate, on C-slow documents (the window suite's speedups are
// not gated; see the Window* cases below).
Json ratio_report(std::initializer_list<Json> entries, double geomean) {
  return report(entries, geomean, kBenchCslowSchema);
}

TEST(BenchRegressionTest, WithinToleranceIsClean) {
  const Json baseline =
      ratio_report({ratio_entry("C1", 2.0), ratio_entry("C2", 4.0)}, 2.8);
  // 15% below baseline everywhere: inside a 20% gate.
  const Json current =
      ratio_report({ratio_entry("C1", 1.7), ratio_entry("C2", 3.4)}, 2.4);
  EXPECT_TRUE(bench_regressions(current, baseline, 0.20).empty());
}

TEST(BenchRegressionTest, RegressionBeyondToleranceFlagged) {
  // C1 falls beyond the 20% floor; the geomean stays inside it so only the
  // per-circuit column is flagged.
  const Json baseline =
      ratio_report({ratio_entry("C1", 2.0), ratio_entry("C2", 4.0)}, 2.8);
  const Json current =
      ratio_report({ratio_entry("C1", 1.2), ratio_entry("C2", 4.0)}, 2.4);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("C1"), std::string::npos);
}

TEST(BenchRegressionTest, ImprovementNeverFlagged) {
  const Json baseline = ratio_report({ratio_entry("C1", 2.0)}, 2.0);
  const Json current = ratio_report({ratio_entry("C1", 20.0)}, 20.0);
  EXPECT_TRUE(bench_regressions(current, baseline, 0.20).empty());
}

TEST(BenchRegressionTest, MissingCircuitFlagged) {
  const Json baseline =
      ratio_report({ratio_entry("C1", 2.0), ratio_entry("C2", 4.0)}, 2.8);
  const Json current = ratio_report({ratio_entry("C1", 2.0)}, 2.0);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_FALSE(regressions.empty());
  EXPECT_NE(regressions[0].find("C2"), std::string::npos);
}

TEST(BenchRegressionTest, SummaryGeomeanGated) {
  const Json baseline = ratio_report({ratio_entry("C1", 2.0)}, 4.0);
  const Json current = ratio_report({ratio_entry("C1", 2.0)}, 2.0);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("summary"), std::string::npos);
}

TEST(BenchRegressionTest, WindowPeriodMismatchFlagged) {
  const Json baseline = report({window_entry("s2k", 2.0, 170, 40)}, 2.0);
  // A better period is still a change: the solver answered differently.
  for (const std::int64_t period : {160, 180}) {
    Json changed = window_entry("s2k", 2.0, 170, 40);
    changed.set("period_windowed", period);
    const auto regressions =
        bench_regressions(report({changed}, 2.0), baseline, 0.20);
    ASSERT_EQ(regressions.size(), 1u) << period;
    EXPECT_NE(regressions[0].find("period_windowed"), std::string::npos);
  }
}

TEST(BenchRegressionTest, WindowCounterAboveBaselineFlagged) {
  const Json baseline = report({window_entry("s2k", 2.0, 170, 40)}, 2.0);
  const Json current = report({window_entry("s2k", 2.0, 170, 41)}, 2.0);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("monolithic_feas_rounds"), std::string::npos);
  // Fewer rounds than the baseline is an improvement.
  const Json fewer = report({window_entry("s2k", 2.0, 170, 12)}, 2.0);
  EXPECT_TRUE(bench_regressions(fewer, baseline, 0.20).empty());
}

TEST(BenchRegressionTest, WindowSpeedupReportedNotGated) {
  // The monolithic solver got faster: the speedup and its geomean fall far
  // below the baseline, but periods and counters hold, so the gate passes.
  const Json baseline = report({window_entry("s2k", 4.0, 170, 40)}, 4.0);
  const Json current = report({window_entry("s2k", 0.5, 170, 40)}, 0.5);
  EXPECT_TRUE(bench_regressions(current, baseline, 0.20).empty());
}

// A paper entry: the gated Table 1-3 columns, both equivalence verdicts and
// an ungated figure column.
Json paper_entry(const char* circuit) {
  Json e = Json::object();
  e.set("circuit", circuit);
  for (const std::string table : {"t1", "t2", "t3"}) {
    e.set(table + "_ff", std::size_t{30});
    e.set(table + "_lut", std::size_t{68});
    e.set(table + "_delay", std::int64_t{50});
  }
  e.set("t2_equivalent", true);
  e.set("t3_equivalent", true);
  e.set("fig4_nosharing_physical", std::size_t{43});
  e.set("identical", true);
  return e;
}

Json paper_report(std::initializer_list<Json> entries) {
  return assemble_bench_report(kBenchPaperSchema, BenchOptions{}, 1,
                               Json::Array(entries));
}

Json with(Json entry, const char* key, Json value) {
  entry.set(key, std::move(value));
  return entry;
}

TEST(BenchPaperTest, ReportWithoutSpeedupColumnsValidates) {
  const Json doc = paper_report({paper_entry("C1"), paper_entry("C2")});
  EXPECT_FALSE(doc.at("summary").has("geomean_speedup"));
  EXPECT_EQ(validate_bench_report(doc, kBenchPaperSchema), "");
  // Other suites still require their speedup columns.
  Json other = doc;
  other.set("schema", kBenchCslowSchema);
  EXPECT_NE(validate_bench_report(other, kBenchCslowSchema), "");
}

TEST(BenchPaperTest, NonEquivalentRowRejected) {
  for (const char* key : {"t2_equivalent", "t3_equivalent"}) {
    // Rejected even when the entry still claims identical=true.
    const Json doc =
        paper_report({paper_entry("C1"), with(paper_entry("C2"), key, false)});
    const std::string problem = validate_bench_report(doc, kBenchPaperSchema);
    EXPECT_NE(problem.find("C2"), std::string::npos) << problem;
    EXPECT_NE(problem.find(key), std::string::npos) << problem;
  }
}

TEST(BenchPaperTest, ChangedDelayFlagged) {
  const Json baseline = paper_report({paper_entry("C1")});
  // A better delay is still a change: the flow answered differently.
  for (const std::int64_t delay : {40, 60}) {
    const Json current =
        paper_report({with(paper_entry("C1"), "t2_delay", delay)});
    const auto regressions = bench_regressions(current, baseline, 0.20);
    ASSERT_EQ(regressions.size(), 1u) << delay;
    EXPECT_NE(regressions[0].find("t2_delay"), std::string::npos);
  }
}

TEST(BenchPaperTest, CountAboveBaselineFlagged) {
  const Json baseline = paper_report({paper_entry("C1")});
  for (const char* key : {"t1_ff", "t2_lut", "t3_ff", "t3_lut"}) {
    const Json current =
        paper_report({with(paper_entry("C1"), key, std::size_t{69})});
    const auto regressions = bench_regressions(current, baseline, 0.20);
    ASSERT_EQ(regressions.size(), 1u) << key;
    EXPECT_NE(regressions[0].find(key), std::string::npos);
  }
}

TEST(BenchPaperTest, LowerCountAndFigureColumnsNotFlagged) {
  const Json baseline = paper_report({paper_entry("C1")});
  Json current = with(paper_entry("C1"), "t2_ff", std::size_t{12});
  current = with(current, "t3_lut", std::size_t{10});
  // Figure and ablation columns are reported, not gated.
  current = with(current, "fig4_nosharing_physical", std::size_t{99});
  EXPECT_TRUE(
      bench_regressions(paper_report({current}), baseline, 0.20).empty());
}

TEST(BenchPaperTest, MissingCircuitFlagged) {
  const Json baseline = paper_report({paper_entry("C1"), paper_entry("C2")});
  const Json current = paper_report({paper_entry("C1")});
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("C2"), std::string::npos);
}

TEST(BenchReportTest, PrettyWriterRoundTrips) {
  const Json doc = report({entry("C1", 2.5), entry("C2", 3.0)}, 2.7);
  const std::string text = write_bench_report(doc);
  // One entry per line for reviewable diffs.
  EXPECT_NE(text.find("\n    {"), std::string::npos);
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(std::holds_alternative<Json>(parsed));
  EXPECT_EQ(std::get<Json>(parsed).write(), doc.write());
}

}  // namespace
}  // namespace mcrt
