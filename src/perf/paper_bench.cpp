// The paper suite of `mcrt bench` (BENCH_paper.json): the §6 evidence —
// Tables 1-3 and Figs. 1, 4 and 5 — in one document.
//
// One entry per paper_suite() circuit C1-C10:
//  - t1_*: after "decompose-sync; sweep; map" (XC4000E-class flip-flops
//    have no synchronous set/clear, so those become logic).
//  - t2_*: retime (minarea at minimum period) + remap of the Table 1
//    netlist, checked sequentially equivalent to it.
//  - t3_*: the same flow with "decompose-en" first: every load enable is a
//    feedback mux before synthesis (the paper's "old way").
//  - fig4_*: the Table 2 retiming's register estimate and physical count,
//    and both again without the §4.2 sharing modification.
//  - fig5_*: local/global justifications and retiming attempts of the
//    Table 2 retiming, and the attempts with global justification off.
//  - tradeoff (C1, C7, C9): minarea at every target period from the
//    minimum up to one step past the unretimed period.
// Then the fixed-netlist sweeps, retimed without remapping: the Fig. 1
// enable tree (fig1_w*) and the class-count ablation (classes_k*).
//
// Every circuit is mapped once and every later section reuses the mapped
// netlist. All flows run as nested tasks on one work-stealing pool, so a
// circuit's sections start as soon as its mapping is done.
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/strings.h"
#include "base/thread_pool.h"
#include "base/timer.h"
#include "mcretime/mc_retime.h"
#include "netlist/netlist.h"
#include "perf/bench.h"
#include "pipeline/flow_context.h"
#include "pipeline/flow_script.h"
#include "pipeline/pass_manager.h"
#include "pipeline/passes.h"
#include "sim/equivalence.h"
#include "tech/sta.h"
#include "transform/decompose_controls.h"
#include "transform/sweep.h"
#include "workload/generator.h"

namespace mcrt {
namespace {

constexpr const char* kTable1Script = "decompose-sync; sweep; map";
constexpr const char* kTable3Script =
    "decompose-en; decompose-sync; sweep; map";
// Minarea at the minimum period, then the remap. d=0 keeps the mapper's
// delays (the default gives delay-less LUTs delay 10).
constexpr const char* kRetimeScript = "retime(d=0); map";

struct Measured {
  std::size_t ff = 0;
  std::size_t lut = 0;
  std::int64_t delay = 0;
};

Measured measure(const Netlist& netlist) {
  const Netlist::Stats stats = netlist.stats();
  return {stats.registers, stats.luts, compute_period(netlist)};
}

struct FlowRun {
  std::optional<Netlist> netlist;  ///< nullopt: the flow failed
  std::optional<McRetimeStats> retime;
  double seconds = 0;
  std::string error;
};

// Runs a flow script through the standard registry. The bench times the
// passes themselves, so per-pass checking is off.
FlowRun run_script(Netlist input, const char* script) {
  PassManagerOptions options;
  options.check_invariants = false;
  options.check_equivalence = false;
  PassManager manager(options);
  FlowRun run;
  if (auto error =
          compile_flow_script(script, PassRegistry::standard(), manager)) {
    run.error = *error;
    return run;
  }
  FlowContext context(std::move(input));
  Timer timer;
  const FlowResult result = manager.run(context);
  run.seconds = timer.seconds();
  if (!result.success) {
    run.error = result.error;
    return run;
  }
  run.retime = context.retime_stats;
  run.netlist = context.take_netlist();
  return run;
}

bool equivalent(const Netlist& before, const Netlist& after) {
  EquivalenceOptions options;
  options.runs = 2;
  options.cycles = 48;
  return check_sequential_equivalence(before, after, options).equivalent;
}

struct TradeoffPoint {
  std::int64_t target = 0;
  McRetimeStats stats;
};

// Everything measured on one paper_suite() circuit. Each section is
// written by its own task; only `errors` is shared between them.
struct CircuitRun {
  std::string name;
  Netlist mapped;  ///< the Table 1 netlist
  bool has_async = false;
  bool has_en = false;
  Measured t1, t2, t3;
  McRetimeStats t2_stats;
  double t2_seconds = 0;
  bool t2_equivalent = false;
  bool t3_equivalent = false;
  McRetimeStats no_sharing;
  McRetimeStats local_only;
  std::vector<TradeoffPoint> tradeoff;

  std::mutex errors_mutex;
  std::string errors;  ///< "section: reason", "; "-separated

  void fail(const char* section, const std::string& error) {
    const std::lock_guard<std::mutex> lock(errors_mutex);
    if (!errors.empty()) errors += "; ";
    errors += std::string(section) + ": " + error;
  }
  /// mc_retime of the Table 1 netlist into `out`; a failure is recorded.
  void retime(const McRetimeOptions& options, const char* section,
              McRetimeStats& out) {
    McRetimeResult result = mc_retime(mapped, options);
    if (result.success) {
      out = std::move(result.stats);
    } else {
      fail(section, result.error);
    }
  }
};

bool has_tradeoff(const std::string& name) {
  return name == "C1" || name == "C7" || name == "C9";
}

void run_table2(CircuitRun& c, TaskGroup& group) {
  FlowRun run = run_script(c.mapped, kRetimeScript);
  if (!run.netlist || !run.retime) return c.fail("table 2", run.error);
  c.t2 = measure(*run.netlist);
  c.t2_stats = *run.retime;
  c.t2_seconds = run.seconds;
  if (has_tradeoff(c.name)) {
    for (std::int64_t target = c.t2_stats.period_after;
         target <= c.t1.delay + 10; target += 10) {
      c.tradeoff.push_back({target, {}});
    }
    for (TradeoffPoint& point : c.tradeoff) {
      group.run([&c, &point] {
        McRetimeOptions options;
        options.target_period = point.target;
        c.retime(options, "tradeoff", point.stats);
      });
    }
  }
  c.t2_equivalent = equivalent(c.mapped, *run.netlist);
}

void run_table3(CircuitRun& c, const CircuitProfile& profile) {
  FlowRun mapped = run_script(generate_circuit(profile), kTable3Script);
  if (!mapped.netlist) return c.fail("table 3 map", mapped.error);
  FlowRun run = run_script(*mapped.netlist, kRetimeScript);
  if (!run.netlist) return c.fail("table 3", run.error);
  c.t3 = measure(*run.netlist);
  c.t3_equivalent = equivalent(*mapped.netlist, *run.netlist);
}

void run_circuit(CircuitRun& c, const CircuitProfile& profile,
                 TaskGroup& group) {
  FlowRun mapped = run_script(generate_circuit(profile), kTable1Script);
  if (!mapped.netlist) return c.fail("table 1", mapped.error);
  c.mapped = std::move(*mapped.netlist);
  const Netlist::Stats stats = c.mapped.stats();
  c.has_async = stats.with_async > 0;
  c.has_en = stats.with_en > 0;
  c.t1 = measure(c.mapped);
  group.run([&c, &group] { run_table2(c, group); });
  group.run([&c] {
    McRetimeOptions options;
    options.sharing_modification = false;
    c.retime(options, "fig 4", c.no_sharing);
  });
  group.run([&c] {
    McRetimeOptions options;
    options.global_justification_budget = 0;
    options.max_attempts = 200;
    c.retime(options, "fig 5", c.local_only);
  });
}

void set_measured(Json& entry, const char* table, const Measured& m) {
  entry.set(str_format("%s_ff", table), m.ff);
  entry.set(str_format("%s_lut", table), m.lut);
  entry.set(str_format("%s_delay", table), m.delay);
}

Json circuit_entry(const CircuitRun& c) {
  Json entry = Json::object();
  entry.set("circuit", c.name);
  entry.set("async", c.has_async);
  entry.set("en", c.has_en);
  set_measured(entry, "t1", c.t1);
  entry.set("t2_classes", c.t2_stats.num_classes);
  entry.set("t2_moved_steps", c.t2_stats.moved_layers);
  entry.set("t2_possible_steps", c.t2_stats.possible_steps);
  set_measured(entry, "t2", c.t2);
  entry.set("t2_equivalent", c.t2_equivalent);
  entry.set("t2_seconds", c.t2_seconds);
  set_measured(entry, "t3", c.t3);
  entry.set("t3_equivalent", c.t3_equivalent);
  entry.set("fig4_estimate", c.t2_stats.register_estimate);
  entry.set("fig4_physical", c.t2_stats.registers_after);
  entry.set("fig4_nosharing_estimate", c.no_sharing.register_estimate);
  entry.set("fig4_nosharing_physical", c.no_sharing.registers_after);
  entry.set("fig5_local", c.t2_stats.relocate.local_justifications);
  entry.set("fig5_global", c.t2_stats.relocate.global_justifications);
  entry.set("fig5_attempts", c.t2_stats.attempts);
  entry.set("fig5_local_only_attempts", c.local_only.attempts);
  if (!c.tradeoff.empty()) {
    Json points = Json::array();
    for (const TradeoffPoint& point : c.tradeoff) {
      Json p = Json::object();
      p.set("target", point.target);
      p.set("ff", point.stats.registers_after);
      p.set("period", point.stats.period_after);
      points.push_back(std::move(p));
    }
    entry.set("tradeoff", std::move(points));
  }
  if (!c.errors.empty()) entry.set("error", c.errors);
  entry.set("identical",
            c.errors.empty() && c.t2_equivalent && c.t3_equivalent);
  return entry;
}

// Fig. 1: a layer of W enabled registers feeds a balanced AND tree.
// Retiming wants to move the layer forward across the tree. mc-retiming
// moves the registers with their EN input (Fig. 1b); the decomposed flow
// turns each into FF + feedback mux first (Fig. 1c), so a forward move
// costs a register and a mux per fanout split (Fig. 1d).
Netlist enabled_tree(std::size_t width) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId en = n.add_input("en");
  std::vector<NetId> layer;
  for (std::size_t i = 0; i < width; ++i) {
    const NetId in = n.add_input("in" + std::to_string(i));
    Register ff;
    ff.d = in;
    ff.clk = clk;
    ff.en = en;
    layer.push_back(n.add_register(std::move(ff)));
  }
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const NetId g = n.add_lut(TruthTable::and_n(2), {layer[i], layer[i + 1]});
      n.set_node_delay(NodeId{n.net(g).driver.index}, 10);
      next.push_back(g);
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  n.add_output("out", layer[0]);
  return n;
}

Json enable_tree_entry(std::size_t width) {
  const Netlist original = enabled_tree(width);
  const McRetimeResult mc = mc_retime(original, {});
  const McRetimeResult dec =
      mc_retime(sweep(decompose_load_enables(original)), {});
  Json entry = Json::object();
  entry.set("circuit", str_format("fig1_w%zu", width));
  entry.set("width", width);
  const bool ok = mc.success && dec.success;
  if (ok) {
    set_measured(entry, "mc", measure(mc.netlist));
    set_measured(entry, "dec", measure(dec.netlist));
  } else {
    entry.set("error", mc.error + dec.error);
  }
  entry.set("identical", ok);
  return entry;
}

// Class-count ablation: B parallel branches, each a small gate and a stack
// of two enabled registers, reconverge into an unregistered reduction tree
// plus a deep tail. Meeting timing needs the branch registers pushed
// forward into the shared logic, which is a valid mc-step only where the
// converging registers share a class. Branch b uses enable (b mod K): K = 1
// is the single-class best case; larger K blocks the convergence gates.
constexpr std::size_t kBranches = 8;
constexpr std::size_t kTailDepth = 8;

Netlist class_ablation(std::size_t enable_count) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  std::vector<NetId> enables;
  for (std::size_t e = 0; e < enable_count; ++e) {
    enables.push_back(n.add_input(str_format("en%zu", e)));
  }
  std::vector<NetId> branch;
  for (std::size_t b = 0; b < kBranches; ++b) {
    const NetId x = n.add_input(str_format("x%zu", b));
    const NetId y = n.add_input(str_format("y%zu", b));
    NetId net = n.add_lut(TruthTable::xor_n(2), {x, y});
    n.set_node_delay(NodeId{n.net(net).driver.index}, 10);
    for (int s = 0; s < 2; ++s) {
      Register ff;
      ff.d = net;
      ff.clk = clk;
      ff.en = enables[b % enable_count];
      net = n.add_register(std::move(ff));
    }
    branch.push_back(net);
  }
  // Reduction tree (reconvergence points) ...
  std::vector<NetId> layer = branch;
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const NetId g = n.add_lut(TruthTable::xor_n(2), {layer[i], layer[i + 1]});
      n.set_node_delay(NodeId{n.net(g).driver.index}, 10);
      next.push_back(g);
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  // ... and a deep unregistered tail.
  NetId tail = layer[0];
  for (std::size_t d = 0; d < kTailDepth; ++d) {
    tail = n.add_lut(TruthTable::inverter(), {tail});
    n.set_node_delay(NodeId{n.net(tail).driver.index}, 10);
  }
  n.add_output("out", tail);
  return n;
}

Json class_ablation_entry(std::size_t enable_count) {
  const McRetimeResult result = mc_retime(class_ablation(enable_count), {});
  const McRetimeStats& s = result.stats;
  Json entry = Json::object();
  entry.set("circuit", str_format("classes_k%zu", enable_count));
  entry.set("enables", enable_count);
  if (result.success) {
    entry.set("classes", s.num_classes);
    entry.set("moved_steps", s.moved_layers);
    entry.set("possible_steps", s.possible_steps);
    entry.set("period", s.period_after);
    entry.set("rdelay", static_cast<double>(s.period_after) /
                            static_cast<double>(s.period_before));
    entry.set("ff", s.registers_after);
  } else {
    entry.set("error", result.error);
  }
  entry.set("identical", result.success);
  return entry;
}

// Adds the suite totals of the per-circuit columns to `summary`, then the
// ratios EXPERIMENTS.md quotes and the §6 CPU split of `profile` (basic
// retiming, implementation = relocation + reset states, mc-graph + classes
// + bounds).
void add_summary(Json& summary, const std::vector<Json>& circuits,
                 const PhaseProfile& profile) {
  for (const char* key :
       {"t1_ff", "t1_lut", "t1_delay", "t2_ff", "t2_lut", "t2_delay",
        "t2_seconds", "t3_ff", "t3_lut", "t3_delay", "fig4_estimate",
        "fig4_physical", "fig4_nosharing_estimate", "fig4_nosharing_physical",
        "fig5_local", "fig5_global", "fig5_attempts",
        "fig5_local_only_attempts"}) {
    double total = 0;
    for (const Json& entry : circuits) total += entry.at(key).as_number();
    summary.set(key, total);
  }
  const auto ratio = [&summary](const char* a, const char* b) {
    const double denominator = summary.at(b).as_number();
    return denominator == 0 ? 0.0 : summary.at(a).as_number() / denominator;
  };
  summary.set("rlut", ratio("t2_lut", "t1_lut"));
  summary.set("rdelay", ratio("t2_delay", "t1_delay"));
  summary.set("t2_ff_ratio", ratio("t2_ff", "t1_ff"));
  summary.set("t3_ff_ratio", ratio("t3_ff", "t1_ff"));
  summary.set("t3_rlut", ratio("t3_lut", "t1_lut"));
  summary.set("t3_rlut_vs_t2", ratio("t3_lut", "t2_lut"));
  summary.set("t3_rdelay_vs_t2", ratio("t3_delay", "t2_delay"));
  const double local = summary.at("fig5_local").as_number();
  const double justifications = local + summary.at("fig5_global").as_number();
  summary.set("local_justify_pct",
              justifications == 0 ? 100.0 : 100.0 * local / justifications);
  summary.set("cpu_retime_pct", profile.percent("retime"));
  summary.set("cpu_implement_pct", profile.percent("implement"));
  summary.set("cpu_graph_pct", profile.percent("graph"));
}

}  // namespace

Json run_paper_bench(const BenchOptions& options) {
  Timer wall;
  const std::vector<CircuitProfile> profiles = paper_suite();
  std::vector<CircuitRun> runs(profiles.size());
  const std::size_t widths[] = {2, 4, 8, 16, 32};
  const std::size_t enable_counts[] = {1, 2, 4, 8};
  std::vector<Json> fixed(std::size(widths) + std::size(enable_counts));
  {
    ThreadPool pool;
    TaskGroup group(pool);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      runs[i].name = profiles[i].name;
      group.run([&, i] { run_circuit(runs[i], profiles[i], group); });
      group.run([&, i] { run_table3(runs[i], profiles[i]); });
    }
    for (std::size_t w = 0; w < std::size(widths); ++w) {
      group.run([&, w] { fixed[w] = enable_tree_entry(widths[w]); });
    }
    for (std::size_t k = 0; k < std::size(enable_counts); ++k) {
      group.run([&, k] {
        fixed[std::size(widths) + k] = class_ablation_entry(enable_counts[k]);
      });
    }
    group.wait();
  }
  Json::Array entries;
  PhaseProfile profile;
  for (const CircuitRun& c : runs) {
    entries.push_back(circuit_entry(c));
    profile.merge(c.t2_stats.profile);
  }
  const std::vector<Json> circuits = entries;
  for (Json& entry : fixed) entries.push_back(std::move(entry));
  Json report = assemble_bench_report(options, 1, std::move(entries));
  Json summary = report.at("summary");
  add_summary(summary, circuits, profile);
  summary.set("wall_seconds", wall.seconds());
  report.set("summary", std::move(summary));
  return report;
}

}  // namespace mcrt
