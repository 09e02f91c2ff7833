// Schema validation, regression gating and serialization of the bench
// harness. The heavy end-to-end run is covered by the cli_bench_quick smoke
// test; here the report-shape logic is pinned on hand-built documents.
#include "perf/bench.h"

#include <gtest/gtest.h>

#include <variant>

namespace mcrt {
namespace {

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
  return assemble_bench_report(BenchOptions{}, 1, Json::Array(entries));
}

Json with(Json entry, const char* key, Json value) {
  entry.set(key, std::move(value));
  return entry;
}

TEST(BenchReportTest, ValidReportPasses) {
  const Json doc = paper_report({paper_entry("C1"), paper_entry("C2")});
  EXPECT_EQ(validate_bench_report(doc), "");
}

TEST(BenchReportTest, SchemaMismatchRejected) {
  Json doc = paper_report({paper_entry("C1")});
  doc.set("schema", "mcrt-bench-window/1");
  EXPECT_NE(validate_bench_report(doc), "");
}

TEST(BenchReportTest, DivergedEnginesRejected) {
  const Json doc =
      paper_report({with(paper_entry("C1"), "identical", false)});
  const std::string problem = validate_bench_report(doc);
  EXPECT_NE(problem.find("diverged"), std::string::npos) << problem;
}

TEST(BenchReportTest, EmptyAndMalformedRejected) {
  EXPECT_NE(validate_bench_report(Json("nope")), "");
  EXPECT_NE(validate_bench_report(paper_report({})), "");
  EXPECT_NE(validate_bench_report(
                paper_report({with(paper_entry("C1"), "circuit", "")})),
            "");
}

TEST(BenchPaperTest, ReportWithoutSpeedupColumnsValidates) {
  const Json doc = paper_report({paper_entry("C1"), paper_entry("C2")});
  EXPECT_FALSE(doc.at("summary").has("geomean_speedup"));
  EXPECT_EQ(validate_bench_report(doc), "");
}

TEST(BenchPaperTest, NonEquivalentRowRejected) {
  for (const char* key : {"t2_equivalent", "t3_equivalent"}) {
    // Rejected even when the entry still claims identical=true.
    const Json doc =
        paper_report({paper_entry("C1"), with(paper_entry("C2"), key, false)});
    const std::string problem = validate_bench_report(doc);
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
    const auto regressions = bench_regressions(current, baseline);
    ASSERT_EQ(regressions.size(), 1u) << delay;
    EXPECT_NE(regressions[0].find("t2_delay"), std::string::npos);
  }
}

TEST(BenchPaperTest, CountAboveBaselineFlagged) {
  const Json baseline = paper_report({paper_entry("C1")});
  for (const char* key : {"t1_ff", "t2_lut", "t3_ff", "t3_lut"}) {
    const Json current =
        paper_report({with(paper_entry("C1"), key, std::size_t{69})});
    const auto regressions = bench_regressions(current, baseline);
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
      bench_regressions(paper_report({current}), baseline).empty());
}

TEST(BenchRegressionTest, MissingCircuitFlagged) {
  // Circuits are matched by name: the one the current report lacks is
  // flagged, one only the current report has is not.
  const Json baseline = paper_report(
      {paper_entry("C1"), paper_entry("C2"), paper_entry("C3")});
  const Json current =
      paper_report({paper_entry("C3"), paper_entry("C1"), paper_entry("C4")});
  const auto regressions = bench_regressions(current, baseline);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("C2"), std::string::npos);
}

TEST(BenchRegressionTest, PaperAttemptsMayNotRise) {
  // Relocation retries are gated with and without global justification:
  // more attempts flag, fewer do not.
  for (const char* key : {"fig5_attempts", "fig5_local_only_attempts"}) {
    SCOPED_TRACE(key);
    const Json baseline =
        paper_report({with(paper_entry("C6"), key, std::size_t{7})});
    const Json more =
        paper_report({with(paper_entry("C6"), key, std::size_t{8})});
    const auto regressions = bench_regressions(more, baseline);
    ASSERT_EQ(regressions.size(), 1u);
    EXPECT_NE(regressions[0].find(key), std::string::npos);
    EXPECT_NE(regressions[0].find("C6"), std::string::npos);
    const Json fewer =
        paper_report({with(paper_entry("C6"), key, std::size_t{1})});
    EXPECT_TRUE(bench_regressions(fewer, baseline).empty());
  }
}

TEST(BenchPaperTest, MissingCircuitFlagged) {
  const Json baseline = paper_report({paper_entry("C1"), paper_entry("C2")});
  const Json current = paper_report({paper_entry("C1")});
  const auto regressions = bench_regressions(current, baseline);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("C2"), std::string::npos);
}

TEST(BenchReportTest, PrettyWriterRoundTrips) {
  const Json doc = paper_report({paper_entry("C1"), paper_entry("C2")});
  const std::string text = write_bench_report(doc);
  // One entry per line for reviewable diffs.
  EXPECT_NE(text.find("\n    {"), std::string::npos);
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(std::holds_alternative<Json>(parsed));
  EXPECT_EQ(std::get<Json>(parsed).write(), doc.write());
}

}  // namespace
}  // namespace mcrt
