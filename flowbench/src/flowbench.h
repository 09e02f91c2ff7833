// The flow benchmark: the paper's map -> mc-retime -> remap flow (and its
// min-period and windowed variants) run end to end on generated designs,
// with an optional layer trace recorded around every library call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "netlist/structural_hash.h"
#include "workload/generator.h"

namespace mcrt::flowbench {

// --- workloads -------------------------------------------------------------

enum class FlowKind {
  /// decompose-sync; sweep; map; retime (min-area at min-period); remap.
  kMappedMinArea,
  /// sweep; retime(minperiod) on the unmapped gates (default LUT delay).
  kGateMinPeriod,
  /// sweep; retime-windowed(minperiod) on the unmapped gates.
  kWindowedMinPeriod,
};

struct Workload {
  std::string name;
  FlowKind flow = FlowKind::kMappedMinArea;
  /// One profile per design; the seeds inside come from the run's --seed.
  std::vector<CircuitProfile> designs;
};

/// The workload called `name`; false if no workload has that name.
bool make_workload(const std::string& name, Workload* out);
/// The same BLIF netlist with its .names/.latch blocks in a seeded order.
std::string reorder_blif(const std::string& text, std::uint64_t seed);

// --- layer trace -----------------------------------------------------------

/// Span names, one per layer call the benchmark wraps.
inline const std::vector<std::string> kLayers = {
    "blif.read",        "blif.write",        "transform.decompose_sync",
    "transform.sweep",  "tech.map",          "tech.remap",
    "mcretime.graph",   "mcretime.bounds",   "mcretime.sharing",
    "mcretime.lower",   "retime.minperiod",  "retime.bounded_feasible",
    "retime.wd",        "retime.minarea",    "mcretime.relocate",
    "mcretime.rebuild", "window.retime",
};

/// Spans and counters recorded from the benchmark's side of each library
/// call. Spans are kept in memory (name, design, start, duration) and
/// summed per layer; counters are plain named totals.
class Trace {
 public:
  struct SpanRecord {
    std::string name;
    std::size_t design = 0;
    double start_s = 0.0;
    double seconds = 0.0;
  };

  Trace();
  void set_design(std::size_t design) { design_ = design; }
  void count(const std::string& name, double amount) { counters_[name] += amount; }
  /// Gives every layer in kLayers that the current design's flow never
  /// entered one empty span, so every workload reports every layer (a
  /// skipped layer then reads as the cost of one span, tens of ns).
  void close_design();

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] const std::map<std::string, double>& counters() const {
    return counters_;
  }
  /// Seconds per span name, summed over every record.
  [[nodiscard]] std::map<std::string, double> layer_seconds() const;
  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  bool write_chrome_json(const std::string& path,
                         const std::vector<std::string>& design_names) const;

 private:
  friend class Span;
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::size_t design_ = 0;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span; a null trace records nothing and reads no clock.
class Span {
 public:
  Span(Trace* trace, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  const char* name_;
  Trace::Clock::time_point start_;
};

// --- flows -----------------------------------------------------------------

/// One design through its workload's flow, from reading the input BLIF to
/// writing the output BLIF.
struct DesignRun {
  bool ok = false;
  std::string error;
  double flow_s = 0.0;
  double retime_s = 0.0;  ///< inside mc_retime / retime_windowed (or replay)
  std::size_t attempts = 0;
  std::int64_t reported_period = 0;  ///< the retimer's own period
  std::int64_t period = 0;           ///< STA period of the written output
  std::size_t ff = 0;
  std::size_t lut = 0;
  std::size_t moved_layers = 0;
  StructuralHash retimed_hash;  ///< the retimer's output netlist
  StructuralHash output_hash;   ///< the written output netlist
  /// Kept only when requested, for the correctness checks.
  Netlist input;
  Netlist retimed;
  Netlist output;
};

/// Runs one design. With a trace, the retimer is re-driven from its public
/// layer calls (mc_retime's attempt loop) and every call gets a span.
/// `window_jobs` is the windowed flow's worker count; results do not
/// depend on it.
DesignRun run_design(FlowKind flow, const std::string& input_path,
                     const std::string& output_path, std::size_t window_jobs,
                     Trace* trace, bool keep_netlists);

// --- checks ----------------------------------------------------------------

/// Checks that do not come from the retimer: simulation equivalence of
/// input against output, the retimer's period recomputed by STA, and (when
/// `bmc` is set) ternary BMC. Returns one line per failed check.
std::vector<std::string> check_design(const std::string& name,
                                      const DesignRun& run, bool bmc,
                                      std::string* notes);

}  // namespace mcrt::flowbench
