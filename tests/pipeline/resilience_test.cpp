// Resilient execution, end to end: per-job deadlines against a stalling
// pass (every job accounted exactly once), pass-failure rollback
// (sim-equivalent netlist + diagnostics), unwritable outputs, and
// checkpoint/resume with byte-identical canonical reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "../common/test_circuits.h"
#include "base/cancel.h"
#include "base/json.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/checkpoint.h"
#include "pipeline/flow_context.h"
#include "pipeline/pass_manager.h"
#include "pipeline/passes.h"
#include "sim/equivalence.h"

namespace mcrt {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<BulkJob> small_batch() {
  std::vector<BulkJob> jobs;
  jobs.push_back(make_netlist_job("a", testing::chain_circuit(4, 2, 10)));
  jobs.push_back(make_netlist_job("b", testing::fig1_circuit()));
  jobs.push_back(make_netlist_job("c", testing::chain_circuit(3, 1, 10)));
  jobs.push_back(make_netlist_job("d", testing::chain_circuit(5, 2, 10)));
  return jobs;
}

/// `netlist` marked for StallPass: an unused input named "stall".
Netlist marked_to_stall(Netlist netlist) {
  netlist.add_input("stall");
  return netlist;
}

/// On circuits marked "stall", naps in 1 ms steps while polling the flow's
/// cancel token, so it ends only when the flow is stopped; on every other
/// circuit a no-op. A pass stuck on a pathological input.
class StallPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "stall"; }
  [[nodiscard]] std::string_view description() const override {
    return "stalls on circuits marked \"stall\"";
  }
  PassResult run(FlowContext& context) override {
    const Netlist& n = context.netlist();
    const bool stalls = std::any_of(
        n.inputs().begin(), n.inputs().end(),
        [&](NodeId input) { return n.node(input).name == "stall"; });
    if (!stalls) return PassResult::ok("not marked");
    for (;;) {
      poll_cancel(context.cancel);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

// --- acceptance: stalled job times out, the rest of the batch completes ---

TEST(ResilienceTest, StalledJobTimesOutOthersSucceed) {
  std::vector<BulkJob> jobs = small_batch();
  jobs[1] = make_netlist_job("b", marked_to_stall(testing::fig1_circuit()));

  BulkOptions options;
  options.jobs = 2;
  options.timeout_seconds = 0.2;
  BulkRunner runner(
      [](PassManager& manager, std::string*) {
        manager.add(std::make_unique<StallPass>());
        manager.add(std::make_unique<SweepPass>());
        return true;
      },
      options);
  const BulkReport report = runner.run(jobs);

  // Every job accounted exactly once, in input order.
  ASSERT_EQ(report.results.size(), 4u);
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(report.results[i].name, names[i]);
  }
  EXPECT_EQ(report.results[1].status, JobStatus::kTimeout);
  EXPECT_FALSE(report.results[1].success);
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(report.results[i].status, JobStatus::kOk) << i;
    EXPECT_TRUE(report.results[i].success) << i;
  }
  EXPECT_EQ(report.succeeded(), 3u);
  EXPECT_EQ(report.failed(), 1u);
}

TEST(ResilienceTest, StalledPassTimesOutInsidePassManager) {
  CancelToken cancel;
  cancel.set_timeout(0.05);
  CollectingDiagnostics diag;
  FlowContext context(marked_to_stall(testing::chain_circuit(4, 2)), &diag);
  context.cancel = &cancel;

  PassManager manager;
  manager.add(std::make_unique<SweepPass>());
  manager.add(std::make_unique<StallPass>());
  manager.add(std::make_unique<StrashPass>());
  const FlowResult result = manager.run(context);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.status, FlowStatus::kTimeout);
  // sweep ran; the stall pass was recorded as the stopping pass and strash
  // never started.
  ASSERT_EQ(result.executed.size(), 2u);
  EXPECT_TRUE(result.executed[0].success);
  EXPECT_FALSE(result.executed[1].success);
}

TEST(ResilienceTest, BatchCancelReportsCancelled) {
  CancelToken cancel;
  cancel.request_cancel();  // cancelled before the batch even starts
  BulkOptions options;
  options.jobs = 2;
  options.cancel = &cancel;
  BulkRunner runner("sweep", options);
  const BulkReport report = runner.run(small_batch());
  ASSERT_EQ(report.results.size(), 4u);
  for (const BulkJobResult& r : report.results) {
    EXPECT_EQ(r.status, JobStatus::kCancelled) << r.name;
    EXPECT_FALSE(r.success);
  }
}

// --- rollback --------------------------------------------------------------

/// Mutates the netlist (breaking equivalence), then fails, or with
/// `throws` set throws instead.
class VandalPass final : public Pass {
 public:
  explicit VandalPass(bool throws = false) : throws_(throws) {}
  [[nodiscard]] std::string_view name() const override { return "vandal"; }
  [[nodiscard]] std::string_view description() const override {
    return "scrambles the netlist, then fails";
  }
  PassResult run(FlowContext& context) override {
    Netlist broken;  // maximally wrong: drop the whole circuit
    broken.add_input("junk");
    context.replace_netlist(std::move(broken));
    if (throws_) throw std::runtime_error("vandal threw");
    return PassResult::fail("vandalism detected");
  }

 private:
  bool throws_;
};

TEST(ResilienceTest, FailingPassRollsBackToPrePassSnapshot) {
  const Netlist original = testing::fig1_circuit();
  CollectingDiagnostics diag;
  FlowContext context(original, &diag);
  PassManager manager;  // rollback_on_failure defaults to true
  manager.add(std::make_unique<SweepPass>());
  manager.add(std::make_unique<VandalPass>());
  const FlowResult result = manager.run(context);

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.status, FlowStatus::kFailed);
  ASSERT_EQ(result.executed.size(), 2u);
  EXPECT_TRUE(result.executed[1].rolled_back);

  // The surviving netlist is the pre-vandal state: sim-equivalent to the
  // input (sweep only removed dead logic).
  const EquivalenceResult eq =
      check_sequential_equivalence(original, context.netlist(), {});
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;

  // The rollback left a diagnostic trail.
  bool recorded = false;
  for (const Diagnostic& d : diag.diagnostics()) {
    if (d.message.find("rolled back") != std::string::npos) recorded = true;
  }
  EXPECT_TRUE(recorded);
}

TEST(ResilienceTest, RollbackDisabledKeepsMutatedNetlist) {
  PassManagerOptions options;
  options.rollback_on_failure = false;
  options.check_invariants = false;
  CollectingDiagnostics diag;
  FlowContext context(testing::fig1_circuit(), &diag);
  PassManager manager(options);
  manager.add(std::make_unique<VandalPass>());
  const FlowResult result = manager.run(context);
  EXPECT_FALSE(result.success);
  ASSERT_EQ(result.executed.size(), 1u);
  EXPECT_FALSE(result.executed[0].rolled_back);
  EXPECT_EQ(context.netlist().stats().inputs, 1u);  // the vandal's junk
}

TEST(ResilienceTest, ThrowingPassAlsoRollsBack) {
  const Netlist original = testing::chain_circuit(4, 2);
  CollectingDiagnostics diag;
  FlowContext context(original, &diag);
  PassManager manager;
  manager.add(std::make_unique<VandalPass>(/*throws=*/true));
  const FlowResult result = manager.run(context);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.status, FlowStatus::kFailed);
  ASSERT_EQ(result.executed.size(), 1u);
  EXPECT_TRUE(result.executed[0].rolled_back);
  EXPECT_NE(result.error.find("vandal threw"), std::string::npos);
  const EquivalenceResult eq =
      check_sequential_equivalence(original, context.netlist(), {});
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

// --- unwritable outputs ---------------------------------------------------

/// A path no output can be written to: its parent, `<dir>/blocker`, is a
/// regular file.
std::string unwritable_path(const fs::path& dir, const std::string& file) {
  std::ofstream(dir / "blocker").put('\n');
  return (dir / "blocker" / file).string();
}

TEST(ResilienceTest, InjectedWriteFailureIsIoError) {
  const fs::path dir = fresh_dir("resilience_write");
  std::vector<BulkJob> jobs;
  BulkJob job = make_netlist_job("a", testing::chain_circuit(3, 1));
  job.output_path = unwritable_path(dir, "a.blif");
  jobs.push_back(std::move(job));
  BulkOptions options;
  options.jobs = 1;
  const BulkReport report = BulkRunner("sweep", options).run(jobs);
  EXPECT_EQ(report.results[0].status, JobStatus::kIoError);
  EXPECT_FALSE(report.results[0].success);
  EXPECT_EQ(report.results[0].error, "cannot write output");
  // Neither the output nor its temp file exists; the blocker is untouched.
  std::vector<std::string> left;
  for (const auto& entry : fs::directory_iterator(dir)) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"blocker"});
  EXPECT_TRUE(fs::is_regular_file(dir / "blocker"));
}

// --- checkpoint/resume -----------------------------------------------------

/// Decodes one manifest line the way load_manifest() does: a whole JSON
/// document that is a job record, or nothing.
std::optional<BulkJobResult> decode_line(const std::string& line) {
  auto parsed = Json::parse(line);
  if (const Json* json = std::get_if<Json>(&parsed)) return job_from_json(*json);
  return std::nullopt;
}

TEST(ResilienceTest, ManifestRecordRoundTrips) {
  BulkJobResult result;
  result.name = "tab\tand\nnewline";
  result.status = JobStatus::kTimeout;
  result.error = "strash: timeout";
  result.input_path = "in/x.blif";
  result.output_path = "out/x.blif";
  result.before.luts = 7;
  result.before.registers = 3;
  result.period_before = 42;
  result.after.luts = 5;
  result.after.registers = 4;
  result.period_after = 17;
  result.seconds = 0.1 + 0.2;  // no short decimal form: needs all digits
  PassExecution pass;
  pass.name = "sweep";
  pass.success = true;
  pass.rolled_back = true;
  pass.summary = "removed 2\tnodes\nfolded 1";
  pass.seconds = 1.0 / 3.0;
  result.executed.push_back(pass);
  result.diagnostics.push_back(
      Diagnostic{DiagSeverity::kWarning, "retime", "clock\tc1\nis derived"});
  result.diagnostics.push_back(
      Diagnostic{DiagSeverity::kError, "strash", "timeout"});

  // Through the writer and loader, as a resumed batch reads it.
  const fs::path dir = fresh_dir("resilience_record");
  const std::string path = (dir / "manifest.txt").string();
  {
    ManifestWriter writer;
    ASSERT_TRUE(writer.open(path, "sweep;\tstrash", /*append=*/false));
    writer.record(result);
  }
  const auto manifest = load_manifest(path);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->script, "sweep;\tstrash");
  ASSERT_EQ(manifest->completed.count(result.name), 1u);
  const BulkJobResult& decoded = manifest->completed.at(result.name);
  EXPECT_EQ(decoded.name, result.name);
  EXPECT_EQ(decoded.status, JobStatus::kTimeout);
  EXPECT_FALSE(decoded.success);
  EXPECT_EQ(decoded.error, result.error);
  EXPECT_EQ(decoded.input_path, result.input_path);
  EXPECT_EQ(decoded.output_path, result.output_path);
  EXPECT_EQ(decoded.before.luts, 7u);
  EXPECT_EQ(decoded.before.registers, 3u);
  EXPECT_EQ(decoded.period_before, 42);
  EXPECT_EQ(decoded.after.luts, 5u);
  EXPECT_EQ(decoded.after.registers, 4u);
  EXPECT_EQ(decoded.period_after, 17);
  EXPECT_EQ(decoded.seconds, result.seconds);
  ASSERT_EQ(decoded.executed.size(), 1u);
  EXPECT_EQ(decoded.executed[0].name, "sweep");
  EXPECT_TRUE(decoded.executed[0].success);
  EXPECT_TRUE(decoded.executed[0].rolled_back);
  EXPECT_EQ(decoded.executed[0].summary, pass.summary);
  EXPECT_EQ(decoded.executed[0].seconds, pass.seconds);
  ASSERT_EQ(decoded.diagnostics.size(), 2u);
  EXPECT_EQ(decoded.diagnostics[0].severity, DiagSeverity::kWarning);
  EXPECT_EQ(decoded.diagnostics[0].origin, "retime");
  EXPECT_EQ(decoded.diagnostics[0].message, result.diagnostics[0].message);
  EXPECT_EQ(decoded.diagnostics[1].severity, DiagSeverity::kError);
  EXPECT_TRUE(decoded.resumed);

  // One record per line, and every truncated prefix of it (a mid-write
  // kill) is rejected, never half-decoded.
  const std::string line = job_to_json(result).write();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  ASSERT_TRUE(decode_line(line).has_value());
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    EXPECT_FALSE(decode_line(line.substr(0, cut)).has_value()) << cut;
  }
  EXPECT_FALSE(decode_line("not a record").has_value());
  EXPECT_FALSE(decode_line("{\"name\": \"a\"}").has_value());
}

TEST(ResilienceTest, TruncatedTrailingRecordAndOldManifestAreDropped) {
  const fs::path dir = fresh_dir("resilience_truncated");
  const std::string path = (dir / "manifest.txt").string();
  BulkJobResult done;
  done.name = "a";
  done.success = true;
  done.status = JobStatus::kOk;
  BulkJobResult killed = done;
  killed.name = "b";
  {
    ManifestWriter writer;
    ASSERT_TRUE(writer.open(path, "sweep", /*append=*/false));
    writer.record(done);
  }
  const std::string partial = job_to_json(killed).write();
  std::ofstream(path, std::ios::app) << partial.substr(0, partial.size() / 2);
  const auto manifest = load_manifest(path);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->completed.size(), 1u);
  EXPECT_EQ(manifest->completed.count("a"), 1u);

  // A tab-separated manifest of the previous format is unreadable: a
  // resume re-runs every job.
  std::ofstream(path, std::ios::trunc)
      << "mcrt-bulk-manifest/1\tsweep\njob\ta\tok\t\t\t\t1\t1\t0\t1\t1\t0"
         "\t0.5\t0\n";
  EXPECT_FALSE(load_manifest(path).has_value());
}

TEST(ResilienceTest, ResumeOverTruncatedManifestJournalsEveryJob) {
  // A kill mid-write leaves a fragment without a newline; the records a
  // resumed batch appends must not be glued onto it.
  const fs::path dir = fresh_dir("resilience_resume_truncated");
  const std::string path = (dir / "manifest.txt").string();
  {
    ManifestWriter writer;
    ASSERT_TRUE(writer.open(path, "sweep", /*append=*/false));
  }
  std::ofstream(path, std::ios::app) << "{\"name\":\"r0";

  BulkOptions options;
  options.jobs = 1;
  options.manifest_path = path;
  options.resume = true;
  const BulkReport report = BulkRunner("sweep", options).run(small_batch());
  EXPECT_EQ(report.succeeded(), 4u);
  const auto manifest = load_manifest(path);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->completed.size(), 4u);
  for (const BulkJob& job : small_batch()) {
    EXPECT_EQ(manifest->completed.count(job.name), 1u) << job.name;
  }
}

/// small_batch() with each job writing `<dir>/<name>.blif`.
std::vector<BulkJob> small_batch_into(const fs::path& dir) {
  std::vector<BulkJob> jobs = small_batch();
  for (BulkJob& job : jobs) {
    job.output_path = (dir / (job.name + ".blif")).string();
  }
  return jobs;
}

TEST(ResilienceTest, ResumeSkipsCompletedJobsAndReportIsByteIdentical) {
  const fs::path dir = fresh_dir("resilience_resume");
  const std::string manifest = (dir / "manifest.txt").string();
  const std::string script = "sweep; retime(minperiod,d=10)";

  // Reference: one uninterrupted run, no manifest.
  BulkOptions plain;
  plain.jobs = 2;
  const BulkReport full =
      BulkRunner(script, plain).run(small_batch_into(dir / "full"));

  // First run: journal to a manifest, with job "c"'s output unwritable —
  // an io-error is not final, so it must not be recorded.
  BulkOptions first = plain;
  first.manifest_path = manifest;
  std::vector<BulkJob> blocked = small_batch_into(dir / "out");
  blocked[2].output_path = unwritable_path(dir, "c.blif");
  const BulkReport partial = BulkRunner(script, first).run(blocked);
  EXPECT_EQ(partial.results[2].status, JobStatus::kIoError);
  EXPECT_EQ(partial.succeeded(), 3u);

  // Resume: only "c" re-runs (now writable) and the merged canonical
  // report matches the uninterrupted run byte for byte.
  BulkOptions second = plain;
  second.manifest_path = manifest;
  second.resume = true;
  const BulkReport resumed =
      BulkRunner(script, second).run(small_batch_into(dir / "out"));
  ASSERT_EQ(resumed.results.size(), 4u);
  EXPECT_TRUE(resumed.results[0].resumed);
  EXPECT_TRUE(resumed.results[1].resumed);
  EXPECT_FALSE(resumed.results[2].resumed);  // re-ran after the io-error
  EXPECT_TRUE(resumed.results[3].resumed);
  EXPECT_TRUE(fs::exists(dir / "out" / "c.blif"));
  EXPECT_EQ(resumed.succeeded(), 4u);

  BulkJsonOptions canonical;
  canonical.canonical = true;
  EXPECT_EQ(resumed.to_json(canonical), full.to_json(canonical));
}

TEST(ResilienceTest, ManifestScriptMismatchIsIgnored) {
  const fs::path dir = fresh_dir("resilience_mismatch");
  const std::string manifest = (dir / "manifest.txt").string();

  BulkOptions first;
  first.jobs = 1;
  first.manifest_path = manifest;
  (void)BulkRunner("sweep", first).run(small_batch());

  // Same manifest, different script: nothing may be skipped, and the
  // report says why.
  BulkOptions second;
  second.jobs = 1;
  second.manifest_path = manifest;
  second.resume = true;
  const BulkReport report = BulkRunner("strash", second).run(small_batch());
  for (const BulkJobResult& r : report.results) {
    EXPECT_FALSE(r.resumed) << r.name;
  }
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("different script"), std::string::npos)
      << report.warnings[0];
}

TEST(ResilienceTest, UnopenableManifestRunsNoJob) {
  const fs::path dir = fresh_dir("resilience_no_manifest");
  BulkOptions options;
  options.jobs = 1;
  options.manifest_path = (dir / "missing" / "manifest.txt").string();
  const BulkReport report = BulkRunner("sweep", options).run(small_batch());
  EXPECT_NE(report.error.find("cannot open manifest"), std::string::npos)
      << report.error;
  EXPECT_TRUE(report.results.empty());
}

// --- all-jobs-fail: report stays valid, exit contract holds ---------------

/// Minimal recursive-descent JSON checker: enough to prove the report is
/// well-formed even when every job failed.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++pos_; pos_ < text_.size(); ++pos_) {
      if (text_[pos_] == '\\') { ++pos_; continue; }
      if (text_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(ResilienceTest, AllJobsFailingStillYieldsValidCanonicalReport) {
  BulkOptions options;
  options.jobs = 2;
  const BulkReport report =
      BulkRunner(
          [](PassManager& manager, std::string*) {
            manager.add(std::make_unique<SweepPass>());
            manager.add(std::make_unique<VandalPass>(/*throws=*/true));
            return true;
          },
          options)
          .run(small_batch());
  EXPECT_EQ(report.succeeded(), 0u);
  EXPECT_EQ(report.failed(), report.results.size());
  for (const BulkJobResult& r : report.results) {
    EXPECT_EQ(r.status, JobStatus::kFailed) << r.name;
    EXPECT_FALSE(r.error.empty()) << r.name;
  }

  BulkJsonOptions canonical;
  canonical.canonical = true;
  const std::string json = report.to_json(canonical);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("mcrt-bulk-report/3"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
}

// --- budgets ---------------------------------------------------------------

TEST(ResilienceTest, BddBudgetDowngradesVerifyToUnverified) {
  // A 1-node BDD cap makes BMC verification impossible; the verify pass
  // degrades to "retimed-but-unverified" instead of failing the flow.
  CollectingDiagnostics diag;
  FlowContext context(testing::fig1_circuit(), &diag);
  context.budgets.bdd_node_cap = 1;
  PassManager manager;
  const PassRegistry& registry = PassRegistry::standard();
  auto verify = registry.create("verify");
  ASSERT_NE(verify, nullptr);
  PassArgs args;
  args.set("bmc", "");
  std::string error;
  ASSERT_TRUE(verify->configure(args, &error)) << error;
  manager.add(std::move(verify));
  const FlowResult result = manager.run(context);
  EXPECT_TRUE(result.success);  // degraded, not failed
  ASSERT_EQ(result.executed.size(), 1u);
  EXPECT_NE(result.executed[0].summary.find("unverified"), std::string::npos);
}

}  // namespace
}  // namespace mcrt
