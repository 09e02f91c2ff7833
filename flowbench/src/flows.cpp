// The three flows, driven only through the library's public functions, and
// the traced replay of mc_retime's attempt loop.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <variant>

#include "blif/blif.h"
#include "flowbench.h"
#include "mcretime/lower.h"
#include "mcretime/mc_retime.h"
#include "mcretime/mcgraph.h"
#include "mcretime/rebuild.h"
#include "mcretime/sharing.h"
#include "retime/minarea.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"
#include "tech/decompose.h"
#include "tech/flowmap.h"
#include "tech/sta.h"
#include "transform/decompose_controls.h"
#include "transform/sweep.h"
#include "window/windowed_retime.h"

namespace mcrt::flowbench {

// --- Trace / Span ------------------------------------------------------------

Trace::Trace() : origin_(Clock::now()) {}

std::map<std::string, double> Trace::layer_seconds() const {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans_) out[s.name] += s.seconds;
  return out;
}

bool Trace::write_chrome_json(
    const std::string& path,
    const std::vector<std::string>& design_names) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string& design =
        s.design < design_names.size() ? design_names[s.design] : "";
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1}%s\n",
                  s.name.c_str(), design.c_str(), s.start_s * 1e6,
                  s.seconds * 1e6, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Trace::close_design() {
  for (const std::string& layer : kLayers) {
    const bool entered = std::any_of(
        spans_.rbegin(), spans_.rend(), [&](const SpanRecord& s) {
          return s.design == design_ && s.name == layer;
        });
    if (!entered) Span s(this, layer.c_str());
  }
}

Span::Span(Trace* trace, const char* name) : trace_(trace), name_(name) {
  if (trace_ == nullptr) return;
  start_ = Trace::Clock::now();
}

Span::~Span() {
  if (trace_ == nullptr) return;
  const auto end = Trace::Clock::now();
  trace_->spans_.push_back(
      {name_, trace_->design_,
       std::chrono::duration<double>(start_ - trace_->origin_).count(),
       std::chrono::duration<double>(end - start_).count()});
}

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// BLIF carries no delays: give delay-less LUTs the retime pass's default
// so the period objective is meaningful (mapped LUTs already carry one).
void assign_default_delays(Netlist& n, std::int64_t delay = 10) {
  for (std::size_t i = 0; i < n.node_count(); ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    if (n.node(id).kind == NodeKind::kLut && !n.node(id).fanins.empty() &&
        n.node(id).delay == 0) {
      n.set_node_delay(id, delay);
    }
  }
}

Netlist map_luts(const Netlist& n, Trace* trace, const char* span,
                 bool count) {
  Span s(trace, span);
  FlowMapResult mapped = flowmap_map(decompose_to_binary(n), FlowMapOptions{});
  if (trace != nullptr && count) {
    trace->count("tech.luts", static_cast<double>(mapped.lut_count));
    trace->count("tech.depth", mapped.depth);
  }
  return std::move(mapped.mapped);
}

void count_relocation(Trace& trace, const RelocateStats& r) {
  trace.count("mcretime.local_justifications",
              static_cast<double>(r.local_justifications));
  trace.count("mcretime.global_justifications",
              static_cast<double>(r.global_justifications));
  trace.count("mcretime.backward_steps", static_cast<double>(r.backward_steps));
  trace.count("mcretime.forward_steps", static_cast<double>(r.forward_steps));
}

void count_graph(Trace& trace, const McGraph& graph, const McBounds& bounds) {
  trace.count("mcretime.classes",
              static_cast<double>(graph.classes().class_count()));
  trace.count("mcretime.vertices", static_cast<double>(graph.vertex_count()));
  trace.count("mcretime.edges",
              static_cast<double>(graph.digraph().edge_count()));
  trace.count("mcretime.possible_steps",
              static_cast<double>(bounds.possible_steps));
  trace.count("mcretime.bounds_capped", bounds.hit_cap ? 1.0 : 0.0);
}

// mc_retime (src/mcretime/mc_retime.cpp) re-driven from its public layer
// calls with a span around each: prepare (graph, §4.1 bounds, sharing),
// then the attempt loop -- lower, tighten the bounds from earlier
// justification failures, re-solve (bounded FEAS at the kept period, else
// min-period plus W/D period constraints), min-area, relocate. The result
// must match the untraced mc_retime exactly; the caller checks that.
McRetimeResult replay_mc_retime(const Netlist& input,
                                const McRetimeOptions& options,
                                Trace& trace) {
  McRetimeResult result;
  McRetimeStats& stats = result.stats;
  stats.registers_before = input.register_count();
  const bool minarea =
      options.objective == McRetimeOptions::Objective::kMinAreaMinPeriod;

  McGraph graph;
  {
    Span s(&trace, "mcretime.graph");
    graph = build_mc_graph(input, options.class_options);
  }
  MaximalRetimingResult maximal;
  {
    Span s(&trace, "mcretime.bounds");
    maximal = compute_mc_bounds(graph);
  }
  McBounds bounds = std::move(maximal.bounds);
  stats.num_classes = graph.classes().class_count();
  stats.possible_steps = bounds.possible_steps;
  count_graph(trace, graph, bounds);
  if (options.sharing_modification && minarea) {
    Span s(&trace, "mcretime.sharing");
    SharingModification modified =
        apply_sharing_modification(graph, bounds, maximal.backward_graph);
    graph = std::move(modified.graph);
    bounds = std::move(modified.bounds);
    stats.separators = modified.separators_inserted;
    trace.count("mcretime.separators",
                static_cast<double>(modified.separators_inserted));
  }

  std::map<std::uint32_t, std::int64_t> tightened_upper;
  std::map<std::uint32_t, std::int64_t> tightened_lower;
  McGraph relocated;
  std::vector<std::int64_t> labels;
  bool implemented = false;
  std::int64_t phi = -1;
  std::vector<DifferenceConstraint> period_constraints;
  for (std::size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    stats.attempts = attempt + 1;
    trace.count("mcretime.attempts", 1);
    RetimeGraph basic;
    {
      Span s(&trace, "mcretime.lower");
      basic = lower_to_retime_graph(graph, bounds);
      for (const auto& [v, upper] : tightened_upper) {
        basic.set_bounds(VertexId{v},
                         std::max(basic.lower_bound(VertexId{v}),
                                  -RetimeGraph::kNoBound),
                         std::min(upper, basic.upper_bound(VertexId{v})));
      }
      for (const auto& [v, lower] : tightened_lower) {
        basic.set_bounds(VertexId{v},
                         std::max(lower, basic.lower_bound(VertexId{v})),
                         basic.upper_bound(VertexId{v}));
      }
    }
    stats.period_before = basic.period();
    bool have_labels = false;
    if (phi >= 0) {
      Span s(&trace, "retime.bounded_feasible");
      if (auto r = bounded_feasible(basic, phi, &period_constraints)) {
        labels = std::move(*r);
        have_labels = true;
      }
    }
    if (!have_labels) {
      RetimeSolution minperiod;
      {
        Span s(&trace, "retime.minperiod");
        minperiod = minperiod_retime(basic, FeasImpl::kCsr);
      }
      if (!minperiod.feasible) {
        result.error = "minperiod retiming infeasible";
        return result;
      }
      labels = minperiod.r;
      phi = minperiod.period;
      period_constraints.clear();
      Span s(&trace, "retime.wd");
      generate_period_constraints(basic, phi, period_constraints);
      trace.count("retime.period_constraints",
                  static_cast<double>(period_constraints.size()));
    }
    stats.period_after = phi;
    if (minarea) {
      Span s(&trace, "retime.minarea");
      const MinAreaResult r = minarea_retime(basic, phi, &period_constraints);
      if (r.feasible) labels = r.r;
    }
    stats.register_estimate = basic.shared_register_area(labels);

    Span s(&trace, "mcretime.relocate");
    relocated = graph;
    const RelocateResult relocation = relocate_registers(
        relocated, input, labels, options.global_justification_budget);
    stats.relocate = relocation.stats;
    count_relocation(trace, relocation.stats);
    if (relocation.success) {
      implemented = true;
      trace.count("mcretime.relocations_ok", 1);
      break;
    }
    const std::uint32_t v = relocation.failed_vertex.value();
    auto& tightened = relocation.failed_backward ? tightened_upper
                                                 : tightened_lower;
    const auto it = tightened.find(v);
    if (it != tightened.end() &&
        (relocation.failed_backward ? it->second <= relocation.achieved
                                    : it->second >= relocation.achieved)) {
      result.error = "relocation failure could not be bounded away: " +
                     relocation.failure_reason;
      return result;
    }
    tightened[v] = relocation.achieved;
  }
  if (!implemented) {
    result.error = "relocation failed after max attempts";
    return result;
  }
  for (std::size_t v = 1; v < graph.vertex_count(); ++v) {
    if (graph.kind(VertexId{static_cast<std::uint32_t>(v)}) ==
        McVertexKind::kGate) {
      stats.moved_layers += static_cast<std::size_t>(std::abs(labels[v]));
    }
  }
  {
    Span s(&trace, "mcretime.rebuild");
    result.netlist = rebuild_netlist(relocated, input);
  }
  stats.registers_after = result.netlist.register_count();
  result.success = true;
  return result;
}

// retime_windowed is one opaque call: its internal mc-graph and §4.1 bounds
// are traced by building them once more beside it.
WindowedRetimeResult traced_windowed(const Netlist& input,
                                     const WindowedRetimeOptions& options,
                                     Trace& trace) {
  McGraph graph;
  {
    Span s(&trace, "mcretime.graph");
    graph = build_mc_graph(input, options.base.class_options);
  }
  MaximalRetimingResult maximal;
  {
    Span s(&trace, "mcretime.bounds");
    maximal = compute_mc_bounds(graph);
  }
  count_graph(trace, graph, maximal.bounds);
  WindowedRetimeResult result;
  {
    Span s(&trace, "window.retime");
    result = retime_windowed(input, options);
  }
  const WindowedRetimeStats& w = result.window_stats;
  trace.count("window.windows", static_cast<double>(w.windows));
  trace.count("window.cut_edges", static_cast<double>(w.cut_edges));
  trace.count("window.refine_accepted", static_cast<double>(w.refine_accepted));
  trace.count("window.window_resolves", static_cast<double>(w.window_resolves));
  trace.count("window.global_fallbacks",
              static_cast<double>(w.global_fallbacks));
  trace.count("mcretime.attempts", static_cast<double>(result.stats.attempts));
  if (result.success) trace.count("mcretime.relocations_ok", 1);
  count_relocation(trace, result.stats.relocate);
  return result;
}

}  // namespace

DesignRun run_design(FlowKind flow, const std::string& input_path,
                     const std::string& output_path, std::size_t window_jobs,
                     Trace* trace, bool keep_netlists) {
  DesignRun run;
  const Clock::time_point start = Clock::now();
  Netlist input;
  {
    Span s(trace, "blif.read");
    auto parsed = read_blif_file(input_path);
    if (auto* error = std::get_if<BlifError>(&parsed)) {
      run.error = input_path + ":" + std::to_string(error->line) + ": " +
                  error->message;
      return run;
    }
    input = std::move(std::get<Netlist>(parsed));
  }
  // The input is only copied when the caller keeps it for the checks.
  Netlist n = keep_netlists ? input : std::move(input);
  if (flow == FlowKind::kMappedMinArea) {
    Span s(trace, "transform.decompose_sync");
    n = decompose_sync_controls(n);
  }
  {
    Span s(trace, "transform.sweep");
    n = sweep(n);
  }
  if (flow == FlowKind::kMappedMinArea) n = map_luts(n, trace, "tech.map", true);
  assign_default_delays(n);

  Netlist retimed;
  if (flow == FlowKind::kWindowedMinPeriod) {
    WindowedRetimeOptions wopt;
    wopt.base.objective = McRetimeOptions::Objective::kMinPeriod;
    wopt.jobs = window_jobs;
    const Clock::time_point t = Clock::now();
    WindowedRetimeResult r = trace != nullptr
                                 ? traced_windowed(n, wopt, *trace)
                                 : retime_windowed(n, wopt);
    run.retime_s = since(t);
    if (!r.success) {
      run.error = "windowed retiming failed: " + r.error;
      return run;
    }
    run.attempts = r.stats.attempts;
    run.reported_period = r.stats.period_after;
    run.moved_layers = r.stats.moved_layers;
    retimed = std::move(r.netlist);
  } else {
    McRetimeOptions ropt;
    if (flow == FlowKind::kGateMinPeriod) {
      ropt.objective = McRetimeOptions::Objective::kMinPeriod;
    }
    const Clock::time_point t = Clock::now();
    McRetimeResult r = trace != nullptr ? replay_mc_retime(n, ropt, *trace)
                                        : mc_retime(n, ropt);
    run.retime_s = since(t);
    if (!r.success) {
      run.error = "retiming failed: " + r.error;
      return run;
    }
    run.attempts = r.stats.attempts;
    run.reported_period = r.stats.period_after;
    run.moved_layers = r.stats.moved_layers;
    retimed = std::move(r.netlist);
  }

  Netlist remapped;
  if (flow == FlowKind::kMappedMinArea) {
    remapped = map_luts(retimed, trace, "tech.remap", false);
  }
  const Netlist& output =
      flow == FlowKind::kMappedMinArea ? remapped : retimed;
  {
    Span s(trace, "blif.write");
    if (!write_blif_file(output, output_path)) {
      run.error = "cannot write " + output_path;
      return run;
    }
  }
  run.flow_s = since(start);

  // Untimed bookkeeping: quality of the output and digests for the
  // determinism and replay checks.
  run.period = compute_period(output);
  const Netlist::Stats st = output.stats();
  run.ff = st.registers;
  run.lut = st.luts;
  run.retimed_hash = structural_hash(retimed);
  run.output_hash = structural_hash(output);
  if (keep_netlists) {
    run.input = std::move(input);
    run.output = output;  // copied first: `output` may be `retimed`
    run.retimed = std::move(retimed);
  }
  run.ok = true;
  return run;
}

}  // namespace mcrt::flowbench
