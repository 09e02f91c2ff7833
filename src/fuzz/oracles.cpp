#include "fuzz/oracles.h"

#include <cstdio>
#include <optional>
#include <utility>

#include "base/strings.h"
#include "blif/blif.h"
#include "mcretime/lower.h"
#include "mcretime/mc_retime.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/job_executor.h"
#include "pipeline/passes.h"
#include "retime/minperiod.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/flowmap.h"
#include "tech/sta.h"
#include "verify/cut_depth.h"

namespace mcrt {

std::string OracleVerdict::first_failure() const {
  for (const OracleLeg& leg : legs) {
    if (!leg.pass) return leg.name + ": " + leg.detail;
  }
  return {};
}

namespace {

void add_leg(OracleVerdict& v, std::string name, bool pass,
             std::string detail = {}) {
  if (!pass) v.pass = false;
  v.legs.push_back(OracleLeg{std::move(name), pass, std::move(detail)});
}

void add_skipped(OracleVerdict& v, std::string name, std::string why) {
  v.legs.push_back(
      OracleLeg{std::move(name), true, "skipped: " + std::move(why)});
}

/// The planted bug: behaves exactly like the standard sweep, then flips
/// the truth table of the first LUT with at least one input — a minimal,
/// silent miscompile. The netlist stays structurally valid, so only a
/// behavioural cross-check can see it.
class FlipLutSweepPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "sweep"; }
  [[nodiscard]] std::string_view description() const override {
    return "sweep (sabotaged: flips one LUT truth table)";
  }
  PassResult run(FlowContext& context) override {
    SweepPass inner;
    PassResult result = inner.run(context);
    if (!result.success) return result;
    Netlist& n = context.netlist();
    for (std::size_t i = 0; i < n.node_count(); ++i) {
      const NodeId id{static_cast<std::uint32_t>(i)};
      const Node& node = std::as_const(n).node(id);
      if (node.kind != NodeKind::kLut || node.function.input_count() < 1) {
        continue;
      }
      n.node(id).function =
          TruthTable(node.function.input_count(), ~node.function.bits());
      break;
    }
    return result;
  }
};

/// Runs `script` serially over a copy of the case's circuit through the
/// same execute_flow_job() core the bulk engine uses.
BulkJobResult run_serial(const FuzzCase& c, const std::string& script,
                         const PassRegistry& registry,
                         const OracleOptions& options) {
  const BulkJob job = make_netlist_job("case", c.netlist);
  JobExecutionOptions exec;
  exec.keep_netlist = true;
  exec.timeout_seconds = options.timeout_seconds;
  exec.cancel = options.cancel;
  BulkJobResult out;
  execute_flow_job(job, script_pipeline(script, &registry), exec, out);
  return out;
}

std::string canonical_json(const BulkJobResult& result) {
  BulkJsonOptions json;
  json.canonical = true;
  return bulk_job_result_to_json(result, json);
}

/// Whether the script restructures fanin cones (decompose/map). Gate-level
/// 3-valued simulation is pessimistic on restructured logic, so on circuits
/// that can hold X indefinitely (EN/sync/async registers) the behavioural
/// leg would report spurious mismatches; those combinations skip it, the
/// byte-identity and period legs still apply.
bool script_restructures(const std::string& script) {
  return script.find("map(") != std::string::npos ||
         script.find("decompose-en") != std::string::npos ||
         script.find("decompose-sync") != std::string::npos;
}

bool keeps_x_alive(const Netlist& netlist) {
  const Netlist::Stats s = netlist.stats();
  return s.with_en + s.with_sync + s.with_async > 0;
}

/// Input-vs-result equivalence leg shared by every flow-running oracle.
void check_flow_behavior(const FuzzCase& c, const BulkJobResult& result,
                         OracleVerdict& v, const char* leg_prefix) {
  const std::string leg = std::string(leg_prefix) + "sim-equivalence";
  if (!result.success || !result.netlist.has_value()) return;
  if (clock_domain_count(c.netlist) > 1) {
    add_skipped(v, leg, "multi-clock circuit (simulators are single-clock)");
    return;
  }
  if (script_restructures(c.script) && keeps_x_alive(c.netlist)) {
    add_skipped(v, leg, "restructuring flow on X-retentive registers");
    return;
  }
  EquivalenceOptions opt;
  opt.cycles = 48;
  opt.runs = 6;
  opt.warmup = 8;
  opt.seed = c.seed | 1;
  // Ternary simulation of a restructured+relocated circuit is allowed to
  // go X where the original is defined (same policy as --bmc-x-ok); only
  // a defined-vs-defined disagreement is a miscompile.
  opt.x_refinement_ok = true;
  const EquivalenceResult eq =
      check_sequential_equivalence(c.netlist, *result.netlist, opt);
  add_leg(v, leg, eq.equivalent, eq.counterexample);
}

/// Reported-period leg: when the script ends with its retime pass, static
/// timing of the result may not exceed the period the pass reports. STA may
/// be lower: it skips fanout-free cones the lowered graph still times.
void check_reported_period(const FuzzCase& c, const BulkJobResult& result,
                           OracleVerdict& v) {
  if (!result.success || !result.netlist.has_value()) return;
  const std::size_t semicolon = c.script.rfind(';');
  const std::string_view last = trim(std::string_view(c.script).substr(
      semicolon == std::string::npos ? 0 : semicolon + 1));
  if (!starts_with(last, "retime") || !result.retime_stats.has_value()) {
    add_skipped(v, "period-bound", "script does not end with its retime pass");
    return;
  }
  const std::int64_t sta = compute_period(*result.netlist);
  const std::int64_t phi = result.retime_stats->period_after;
  add_leg(v, "period-bound", sta <= phi,
          sta <= phi ? std::string{}
                     : str_format("retime reported %lld, STA says %lld",
                                  static_cast<long long>(phi),
                                  static_cast<long long>(sta)));
}

// --- serial vs bulk ---------------------------------------------------------

OracleVerdict serial_vs_bulk(const FuzzCase& c, const PassRegistry& registry,
                             const OracleOptions& options) {
  OracleVerdict v;
  const BulkJobResult serial = run_serial(c, c.script, registry, options);

  BulkOptions bulk_options;
  bulk_options.jobs = 3;
  bulk_options.keep_netlists = true;
  bulk_options.registry = &registry;
  bulk_options.timeout_seconds = options.timeout_seconds;
  bulk_options.cancel = options.cancel;
  const BulkRunner runner(c.script, bulk_options);
  const BulkReport report = runner.run({make_netlist_job("case", c.netlist)});
  if (report.results.size() != 1) {
    add_leg(v, "bulk-ran", false, "bulk produced no result");
    return v;
  }
  const BulkJobResult& bulk = report.results.front();

  const std::string serial_json = canonical_json(serial);
  const std::string bulk_json = canonical_json(bulk);
  add_leg(v, "report-identity", serial_json == bulk_json,
          serial_json == bulk_json
              ? std::string{}
              : "canonical per-job JSON differs between serial and bulk");
  if (serial.success && bulk.success) {
    const std::string serial_blif = write_blif_string(*serial.netlist);
    const std::string bulk_blif = write_blif_string(*bulk.netlist);
    add_leg(v, "blif-identity", serial_blif == bulk_blif,
            serial_blif == bulk_blif
                ? std::string{}
                : "result BLIF differs between serial and bulk");
  } else {
    add_leg(v, "failure-agreement", serial.success == bulk.success,
            str_format("serial %s, bulk %s",
                       serial.success ? "succeeded" : "failed",
                       bulk.success ? "succeeded" : "failed"));
  }
  check_flow_behavior(c, serial, v, "");
  check_reported_period(c, serial, v);
  return v;
}

// --- production engines vs independent references ---------------------------

/// Leg 2: bounded FEAS min-period vs Leiserson-Saxe's W/D period
/// constraints solved by SPFA, on the case's lowered graph with its class
/// bounds. W/D must accept the FEAS optimum phi* with the same labels (both
/// return the least solution >= 0) and reject phi* - 1: W/D feasibility
/// is monotone in phi, so phi* is then the smallest period it accepts,
/// whatever multiples the engine searched.
void check_minperiod_vs_wd(const FuzzCase& c, const OracleOptions& options,
                           OracleVerdict& v) {
  Netlist delayed = c.netlist;
  set_default_lut_delays(delayed, 10);  // the retime pass's d=10
  const McPrepared prepared = prepare_mc_graph(delayed, McRetimeOptions{});
  const RetimeGraph graph =
      lower_to_retime_graph(prepared.graph, prepared.bounds);
  const RetimeSolution feas =
      minperiod_retime(graph, FeasImpl::kCsr, options.cancel);
  const std::string illegal = graph.check_legal(feas.r);
  const std::int64_t achieved = illegal.empty() ? graph.period(feas.r) : 0;
  add_leg(v, "feas-legality", illegal.empty() && achieved <= feas.period,
          illegal.empty()
              ? str_format("labels give %lld, claimed %lld",
                           static_cast<long long>(achieved),
                           static_cast<long long>(feas.period))
              : illegal);
  if (v.legs.back().pass) v.legs.back().detail.clear();

  const auto wd = bounded_feasible(graph, feas.period, nullptr, options.cancel);
  const bool below_rejected =
      !bounded_feasible(graph, feas.period - 1, nullptr, options.cancel);
  const bool same_labels = wd && *wd == feas.r;
  add_leg(v, "minperiod-vs-wd", wd && below_rejected && same_labels,
          str_format("FEAS optimum %lld: W/D %s it%s and %s %lld",
                     static_cast<long long>(feas.period),
                     wd ? "accepts" : "rejects",
                     !wd || same_labels ? "" : " with other labels",
                     below_rejected ? "rejects" : "accepts",
                     static_cast<long long>(feas.period - 1)));
  if (v.legs.back().pass) v.legs.back().detail.clear();
}

/// Leg 3: FlowMap's depth on the decomposed circuit vs exhaustive k-cut
/// enumeration, the definition its labels optimise.
void check_flowmap_vs_cuts(const FuzzCase& c, const OracleOptions& options,
                           OracleVerdict& v) {
  const Netlist binary = decompose_to_binary(c.netlist);
  FlowMapOptions map_options;
  map_options.cancel = options.cancel;
  const FlowMapResult mapped = flowmap_map(binary, map_options);
  const auto reference = exhaustive_cut_depth(binary, map_options.k);
  if (!reference) {
    add_skipped(v, "flowmap-depth-vs-cuts", "cut enumeration above its cap");
    return;
  }
  add_leg(v, "flowmap-depth-vs-cuts", mapped.depth == *reference,
          mapped.depth == *reference
              ? std::string{}
              : str_format("FlowMap depth %u, exhaustive cut depth %u",
                           mapped.depth, *reference));
}

OracleVerdict engine_vs_reference(const FuzzCase& c,
                                  const PassRegistry& registry,
                                  const OracleOptions& options) {
  OracleVerdict v;

  // Leg 1: the scripted flow must preserve behaviour, and the word-parallel
  // and scalar equivalence engines must agree about it.
  const BulkJobResult serial = run_serial(c, c.script, registry, options);
  check_flow_behavior(c, serial, v, "");
  if (serial.success && serial.netlist.has_value() &&
      clock_domain_count(c.netlist) <= 1) {
    EquivalenceOptions word;
    word.cycles = 48;
    word.runs = 6;
    word.warmup = 8;
    word.seed = c.seed | 1;
    word.x_refinement_ok = true;  // same policy as the behaviour leg
    EquivalenceOptions scalar = word;
    scalar.engine = EquivalenceOptions::Engine::kScalar;
    const EquivalenceResult rw =
        check_sequential_equivalence(c.netlist, *serial.netlist, word);
    const EquivalenceResult rs =
        check_sequential_equivalence(c.netlist, *serial.netlist, scalar);
    const bool agree = rw.equivalent == rs.equivalent &&
                       rw.counterexample == rs.counterexample &&
                       rw.compared_defined_outputs ==
                           rs.compared_defined_outputs;
    add_leg(v, "sim-engine-agreement", agree,
            agree ? std::string{}
                  : str_format("word: eq=%d cmp=%zu, scalar: eq=%d cmp=%zu",
                               rw.equivalent ? 1 : 0,
                               rw.compared_defined_outputs,
                               rs.equivalent ? 1 : 0,
                               rs.compared_defined_outputs));
  }

  try {
    check_minperiod_vs_wd(c, options, v);
  } catch (const CancelledError&) {
    throw;
  } catch (const std::exception& e) {
    add_leg(v, "minperiod-vs-wd", false,
            std::string("engine threw: ") + e.what());
  }
  try {
    check_flowmap_vs_cuts(c, options, v);
  } catch (const CancelledError&) {
    throw;
  } catch (const std::exception& e) {
    add_leg(v, "flowmap-depth-vs-cuts", false,
            std::string("engine threw: ") + e.what());
  }
  return v;
}

}  // namespace

bool install_break(PassRegistry& registry, const std::string& spec,
                   std::string* error) {
  if (spec == "flip-lut") {
    registry.register_pass(
        "sweep", [] { return std::make_unique<FlipLutSweepPass>(); });
    return true;
  }
  if (error) *error = "unknown break spec: " + spec;
  return false;
}

bool make_fuzz_registry(const FuzzCase& c, PassRegistry& registry,
                        std::string* error) {
  if (!c.break_spec.empty() &&
      !install_break(registry, c.break_spec, error)) {
    return false;
  }
  // Duplicate names are rejected, so an installed break shadows the
  // standard pass of the same name.
  register_standard_passes(registry);
  return true;
}

OracleVerdict run_oracle(const FuzzCase& c, const OracleOptions& options) {
  PassRegistry registry;
  std::string error;
  if (!make_fuzz_registry(c, registry, &error)) {
    OracleVerdict v;
    add_leg(v, "setup", false, error);
    return v;
  }
  switch (c.oracle) {
    case OracleKind::kSerialVsBulk:
      return serial_vs_bulk(c, registry, options);
    case OracleKind::kEngineVsReference:
      return engine_vs_reference(c, registry, options);
  }
  OracleVerdict v;
  add_leg(v, "setup", false, "unknown oracle");
  return v;
}

}  // namespace mcrt
