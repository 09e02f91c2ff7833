// Built-in passes: thin adapters wrapping the library's flow entry points.
//
// Script names and arguments (see flow_script.h for the grammar):
//
//   sweep                         constant folding + dead-logic removal
//   strash                        structural hashing of duplicate nodes
//   regsweep                      merge provably identical registers
//   decompose-en                  EN -> feedback mux (Table 3 baseline)
//   decompose-sync                SS/SC -> gates before D (§6 preprocessing)
//   map(k=4,d=10,area-recovery)   2-bounded decompose + FlowMap k-LUT map
//   retime(target=N,minperiod,no-sharing,d=10)
//                                 multiple-class retiming (paper §5);
//                                 d assigns the default delay to LUTs that
//                                 have none so the period objective is
//                                 meaningful on delay-less BLIF input
//   retime(cslow=C[,cslow-verify])
//                                 C-slow first (src/cslow/): every register
//                                 becomes a chain of C, then retiming
//                                 rebalances the chains toward period T/C
//                                 per stream. cslow-verify re-checks stream
//                                 equivalence + ternary BMC after the pass.
//                                 NOTE: a C-slowed netlist is *not*
//                                 input-equivalent (it interleaves C
//                                 streams), so flow-level equivalence spot
//                                 checks and verify() do not apply.
//   retime-windowed(window-size=1024,windows=0,window-jobs=0,refine=1,...)
//                                 the same pass and arguments on the
//                                 windowed driver (src/window/): bounded
//                                 regions solved in parallel with frozen
//                                 boundaries, stitched and refined.
//                                 windows=0 derives the count from
//                                 window-size; window-jobs=0 uses one
//                                 worker per hardware thread
//
// Benches and tools that need the full option structs construct the pass
// classes directly instead of going through script arguments.
#pragma once

#include <cstdint>
#include <string_view>

#include "mcretime/mc_retime.h"
#include "pipeline/pass.h"
#include "pipeline/pass_manager.h"
#include "tech/flowmap.h"
#include "window/windowed_retime.h"

namespace mcrt {

class SweepPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "sweep"; }
  [[nodiscard]] std::string_view description() const override {
    return "constant folding, buffer collapsing and dead-logic removal";
  }
  PassResult run(FlowContext& context) override;
};

class StrashPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "strash"; }
  [[nodiscard]] std::string_view description() const override {
    return "merge combinational nodes computing the same function";
  }
  PassResult run(FlowContext& context) override;
};

class RegisterSweepPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "regsweep"; }
  [[nodiscard]] std::string_view description() const override {
    return "merge provably identical registers";
  }
  PassResult run(FlowContext& context) override;
};

class DecomposeEnPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "decompose-en";
  }
  [[nodiscard]] std::string_view description() const override {
    return "replace load enables with feedback multiplexers";
  }
  PassResult run(FlowContext& context) override;
};

class DecomposeSyncPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "decompose-sync";
  }
  [[nodiscard]] std::string_view description() const override {
    return "turn synchronous set/clear into gates before D";
  }
  PassResult run(FlowContext& context) override;
};

class MapPass final : public Pass {
 public:
  MapPass() = default;
  explicit MapPass(FlowMapOptions options) : options_(options) {}
  [[nodiscard]] std::string_view name() const override { return "map"; }
  [[nodiscard]] std::string_view description() const override {
    return "decompose to 2-bounded logic and FlowMap into k-LUTs";
  }
  bool configure(const PassArgs& args, std::string* error) override;
  PassResult run(FlowContext& context) override;

 private:
  FlowMapOptions options_;
};

/// One pass for both retime script names: `retime` calls mc_retime(),
/// `retime-windowed` calls retime_windowed() and alone accepts the window
/// arguments.
class RetimePass final : public Pass {
 public:
  /// Script defaults: minarea at minimum period, sharing on, delay-less
  /// LUTs given delay 10 (matching the legacy `mcrt retime` subcommand).
  /// `windowed` selects the `retime-windowed` driver.
  explicit RetimePass(bool windowed = false) : windowed_(windowed) {}
  /// Programmatic use (benches): full options, and by default no delay
  /// rewriting — mapped netlists already carry the mapper's delays.
  explicit RetimePass(McRetimeOptions options,
                      std::int64_t default_lut_delay = 0)
      : default_lut_delay_(default_lut_delay) {
    options_.base = options;
  }
  [[nodiscard]] std::string_view name() const override {
    return windowed_ ? "retime-windowed" : "retime";
  }
  [[nodiscard]] std::string_view description() const override {
    return windowed_
               ? "windowed multiple-class retiming (parallel bounded regions)"
               : "multiple-class retiming (minarea at minimum feasible period)";
  }
  bool configure(const PassArgs& args, std::string* error) override;
  PassResult run(FlowContext& context) override;

 private:
  bool windowed_ = false;
  /// `base` drives both names; the window fields only `retime-windowed`.
  WindowedRetimeOptions options_;
  std::int64_t default_lut_delay_ = 10;
  std::uint32_t cslow_ = 0;  ///< 0 = off; C >= 1 = C-slow before retiming
  bool cslow_verify_ = false;
};

/// In-flow verification: checks the current netlist against the flow-input
/// snapshot (context.reference). Methods, selectable by flag:
///
///   verify                        simulation spot check (default)
///   verify(bmc,depth=8,x-ok)      exhaustive ternary BMC to a bounded depth;
///                                 x-ok treats X-refinement as benign (the
///                                 forward-EN caveat)
///   verify(formal)                BDD reachability equivalence
///   verify(cycles=64,runs=8)      simulation effort knobs
///
/// Budget trips (BDD node cap, BMC step cap) degrade gracefully: the pass
/// succeeds with a "retimed-but-unverified" summary, a warning diagnostic
/// and metric verify.unverified=1 instead of failing the flow. A proven
/// mismatch always fails the flow.
class VerifyPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "verify"; }
  [[nodiscard]] std::string_view description() const override {
    return "check the current netlist against the flow input";
  }
  [[nodiscard]] bool needs_reference() const override { return true; }
  bool configure(const PassArgs& args, std::string* error) override;
  PassResult run(FlowContext& context) override;

 private:
  enum class Method { kSim, kBmc, kFormal };
  Method method_ = Method::kSim;
  std::size_t depth_ = 8;        ///< BMC unroll depth
  bool x_refinement_ok_ = false;
  std::size_t cycles_ = 64;      ///< simulation cycles per run
  std::size_t runs_ = 8;         ///< simulation runs
};

/// Registers every pass above under its script name.
void register_standard_passes(PassRegistry& registry);

}  // namespace mcrt
