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

Json report(std::initializer_list<Json> entries, double geomean) {
  Json::Array array;
  for (const Json& e : entries) array.push_back(e);
  Json summary = Json::object();
  summary.set("circuits", array.size());
  summary.set("geomean_speedup", geomean);
  summary.set("all_identical", true);
  Json doc = Json::object();
  doc.set("schema", kBenchWindowSchema);
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

TEST(BenchRegressionTest, WithinToleranceIsClean) {
  const Json baseline = report({entry("C1", 2.0), entry("C2", 4.0)}, 2.8);
  // 15% slower than baseline everywhere: inside a 20% gate.
  const Json current = report({entry("C1", 1.7), entry("C2", 3.4)}, 2.4);
  EXPECT_TRUE(bench_regressions(current, baseline, 0.20).empty());
}

TEST(BenchRegressionTest, RegressionBeyondToleranceFlagged) {
  // C1 falls beyond the 20% floor; the geomean stays inside it so only the
  // per-circuit column is flagged.
  const Json baseline = report({entry("C1", 2.0), entry("C2", 4.0)}, 2.8);
  const Json current = report({entry("C1", 1.2), entry("C2", 4.0)}, 2.4);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("C1"), std::string::npos);
}

TEST(BenchRegressionTest, ImprovementNeverFlagged) {
  const Json baseline = report({entry("C1", 2.0)}, 2.0);
  const Json current = report({entry("C1", 20.0)}, 20.0);
  EXPECT_TRUE(bench_regressions(current, baseline, 0.20).empty());
}

TEST(BenchRegressionTest, MissingCircuitFlagged) {
  const Json baseline = report({entry("C1", 2.0), entry("C2", 4.0)}, 2.8);
  const Json current = report({entry("C1", 2.0)}, 2.0);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_FALSE(regressions.empty());
  EXPECT_NE(regressions[0].find("C2"), std::string::npos);
}

TEST(BenchRegressionTest, SummaryGeomeanGated) {
  const Json baseline = report({entry("C1", 2.0)}, 4.0);
  const Json current = report({entry("C1", 2.0)}, 2.0);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("summary"), std::string::npos);
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
