// BulkRunner: batch execution, per-job failure isolation, atomic output
// files (a failing job must not leak a partial or temp output), report
// aggregation and canonical JSON determinism.
#include "pipeline/bulk_runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "../common/test_circuits.h"
#include "blif/blif.h"
#include "pipeline/flow_context.h"
#include "pipeline/passes.h"

namespace mcrt {
namespace {

namespace fs = std::filesystem;

/// A pass that throws on circuits whose first data input is named "boom"
/// and behaves as a no-op otherwise — the mid-batch poison for the
/// failure-isolation tests.
class BoomPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "boom"; }
  [[nodiscard]] std::string_view description() const override {
    return "throws on poisoned circuits";
  }
  PassResult run(FlowContext& context) override {
    const Netlist& n = context.netlist();
    for (std::size_t i = 0; i < n.net_count(); ++i) {
      if (n.net(NetId{static_cast<std::uint32_t>(i)}).name == "boom") {
        throw std::runtime_error("poisoned circuit");
      }
    }
    return PassResult::ok("survived");
  }
};

Netlist poisoned_circuit() {
  Netlist n = testing::chain_circuit(3, 2);
  n.add_input("boom");  // unused marker input
  return n;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

BulkOptions quiet_options() {
  BulkOptions options;
  options.jobs = 2;
  options.manager.check_invariants = true;
  return options;
}

TEST(BulkRunnerTest, RunsAllJobsInInputOrder) {
  std::vector<BulkJob> jobs;
  jobs.push_back(make_netlist_job("a", testing::chain_circuit(4, 2)));
  jobs.push_back(make_netlist_job("b", testing::fig1_circuit()));
  jobs.push_back(make_netlist_job("c", testing::chain_circuit(2, 1)));

  BulkRunner runner("sweep; strash", quiet_options());
  ASSERT_EQ(runner.check(), std::nullopt);
  const BulkReport report = runner.run(jobs);

  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.results[0].name, "a");
  EXPECT_EQ(report.results[1].name, "b");
  EXPECT_EQ(report.results[2].name, "c");
  EXPECT_EQ(report.succeeded(), 3u);
  EXPECT_EQ(report.failed(), 0u);
  for (const BulkJobResult& r : report.results) {
    EXPECT_TRUE(r.success);
    ASSERT_EQ(r.executed.size(), 2u);
    EXPECT_EQ(r.executed[0].name, "sweep");
    EXPECT_EQ(r.executed[1].name, "strash");
  }
}

TEST(BulkRunnerTest, CheckReportsBadScriptWithoutRunning) {
  BulkRunner runner("sweep; not-a-pass", quiet_options());
  const auto error = runner.check();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("not-a-pass"), std::string::npos);
}

TEST(BulkRunnerTest, ThrowingPassMidBatchOnlyFailsItsJob) {
  std::vector<BulkJob> jobs;
  jobs.push_back(make_netlist_job("ok0", testing::chain_circuit(3, 2)));
  jobs.push_back(make_netlist_job("bad", poisoned_circuit()));
  jobs.push_back(make_netlist_job("ok1", testing::chain_circuit(5, 2)));
  jobs.push_back(make_netlist_job("ok2", testing::fig1_circuit()));

  BulkOptions options = quiet_options();
  options.keep_netlists = true;
  BulkRunner runner(
      [](PassManager& manager, std::string*) {
        manager.add(std::make_unique<BoomPass>());
        manager.add(std::make_unique<SweepPass>());
        return true;
      },
      options);
  const BulkReport report = runner.run(jobs);

  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_EQ(report.succeeded(), 3u);
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_FALSE(report.results[1].success);
  EXPECT_NE(report.results[1].error.find("poisoned"), std::string::npos);
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_TRUE(report.results[i].success) << i;
    EXPECT_TRUE(report.results[i].netlist.has_value()) << i;
  }
}

TEST(BulkRunnerTest, FailingJobLeavesNoOutputOrTempFile) {
  const fs::path dir = fresh_dir("bulk_atomic");
  std::vector<BulkJob> jobs;
  BulkJob good = make_netlist_job("good", testing::chain_circuit(3, 2));
  good.output_path = (dir / "good.blif").string();
  BulkJob bad = make_netlist_job("bad", poisoned_circuit());
  bad.output_path = (dir / "bad.blif").string();
  jobs.push_back(std::move(good));
  jobs.push_back(std::move(bad));

  BulkRunner runner(
      [](PassManager& manager, std::string*) {
        manager.add(std::make_unique<SweepPass>());
        manager.add(std::make_unique<BoomPass>());
        return true;
      },
      quiet_options());
  const BulkReport report = runner.run(jobs);

  EXPECT_TRUE(report.results[0].success);
  EXPECT_FALSE(report.results[1].success);
  EXPECT_TRUE(fs::exists(dir / "good.blif"));
  EXPECT_FALSE(fs::exists(dir / "bad.blif"));
  // No partial/temp leftovers from the failed job either.
  EXPECT_FALSE(fs::exists(dir / "bad.blif.tmp"));

  // The successful output is a complete, loadable netlist.
  auto parsed = read_blif_file((dir / "good.blif").string());
  EXPECT_TRUE(std::holds_alternative<Netlist>(parsed));
}

TEST(BulkRunnerTest, UnreadableInputFailsOnlyThatJob) {
  const fs::path dir = fresh_dir("bulk_missing");
  std::vector<BulkJob> jobs;
  jobs.push_back(make_file_job((dir / "missing.blif").string(),
                               (dir / "missing.out.blif").string()));
  jobs.push_back(make_netlist_job("mem", testing::chain_circuit(2, 1)));

  BulkRunner runner("sweep", quiet_options());
  const BulkReport report = runner.run(jobs);
  EXPECT_FALSE(report.results[0].success);
  EXPECT_FALSE(report.results[0].diagnostics.empty());
  EXPECT_TRUE(report.results[1].success);
  EXPECT_FALSE(fs::exists(dir / "missing.out.blif"));
}

TEST(BulkRunnerTest, RecordsStatsDeltasAndProfile) {
  std::vector<BulkJob> jobs;
  jobs.push_back(make_netlist_job("chain", testing::chain_circuit(6, 3, 10)));

  BulkOptions options = quiet_options();
  BulkRunner runner("sweep; retime(minperiod,d=10)", options);
  const BulkReport report = runner.run(jobs);
  ASSERT_EQ(report.succeeded(), 1u);
  const BulkJobResult& r = report.results[0];
  EXPECT_GT(r.before.registers, 0u);
  EXPECT_GT(r.period_before, 0);
  EXPECT_LT(r.period_after, r.period_before);  // retiming spreads the chain
  EXPECT_TRUE(r.retime_stats.has_value());
  // The merged profile covers both passes.
  EXPECT_EQ(report.profile.phases().size(), 2u);
  EXPECT_GE(report.cpu_seconds, r.profile.total());
}

TEST(BulkRunnerTest, JobDiagnosticsStayWithTheirJob) {
  BulkOptions options = quiet_options();
  options.manager.verbose = true;
  std::vector<BulkJob> jobs;
  jobs.push_back(make_netlist_job("first", testing::chain_circuit(2, 1)));
  jobs.push_back(make_netlist_job("second", testing::chain_circuit(3, 1)));

  BulkRunner runner("sweep", options);
  const BulkReport report = runner.run(jobs);
  ASSERT_EQ(report.succeeded(), 2u);
  // Each job's notes land in its own result, in input order.
  for (const BulkJobResult& r : report.results) {
    ASSERT_FALSE(r.diagnostics.empty()) << r.name;
    for (const Diagnostic& d : r.diagnostics) {
      EXPECT_NE(d.severity, DiagSeverity::kError) << r.name << ": "
                                                  << d.message;
    }
  }
}

TEST(BulkRunnerTest, CanonicalJsonIdenticalAcrossJobCounts) {
  const auto batch = [] {
    std::vector<BulkJob> jobs;
    jobs.push_back(make_netlist_job("a", testing::chain_circuit(5, 2, 10)));
    jobs.push_back(make_netlist_job("b", testing::fig1_circuit()));
    jobs.push_back(make_netlist_job("c", testing::chain_circuit(3, 1, 10)));
    return jobs;
  };
  BulkOptions serial = quiet_options();
  serial.jobs = 1;
  BulkOptions wide = quiet_options();
  wide.jobs = 8;
  const std::string script = "sweep; retime(minperiod,d=10)";
  const BulkReport r1 = BulkRunner(script, serial).run(batch());
  const BulkReport r8 = BulkRunner(script, wide).run(batch());

  BulkJsonOptions canonical;
  canonical.canonical = true;
  EXPECT_EQ(r1.to_json(canonical), r8.to_json(canonical));

  // Non-canonical reports carry the timing fields.
  const std::string timed = r1.to_json();
  EXPECT_NE(timed.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(timed.find("\"speedup\""), std::string::npos);
  EXPECT_EQ(r1.to_json(canonical).find("\"wall_seconds\""),
            std::string::npos);
}

}  // namespace
}  // namespace mcrt
