// Synthetic industrial-style FPGA workloads (substitute for the paper's
// proprietary RTL designs; see DESIGN.md §2).
//
// Each circuit is assembled from blocks that mirror what the paper's
// industrial designs contain:
//  - *pipelines*: wide combinational clouds whose registers sit bunched at
//    the end of the chain (HDL coding style), leaving retiming real work;
//  - *accumulators*: feedback datapaths whose registers cannot move far;
//  - *shift groups*: register chains that exercise fanout sharing;
//  - a *control section*: counters plus decode cones that generate the
//    load-enable and synchronous-clear signals the register classes use.
//
// The C1..C10 profiles are tuned so the resulting circuit characteristics
// (#FF, #LUT, AS/AC and EN usage, and the class count of Table 2) land in
// the same regime as the paper's Table 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace mcrt {

struct CircuitProfile {
  std::string name;
  std::uint64_t seed = 1;

  bool use_async = true;   ///< some registers get AS/AC (Table 1 "AS/AC")
  bool use_en = true;      ///< some registers get load enables (Table 1 "EN")
  bool use_sync = false;   ///< synchronous set/clear (decomposed before map)

  /// Number of distinct enable/reset signal combinations to spread over the
  /// registers (drives Table 2 "#Class").
  std::size_t control_signals = 4;

  std::size_t data_inputs = 8;

  struct Pipeline {
    std::size_t width = 8;        ///< gates per layer
    std::size_t depth = 6;        ///< combinational layers
    std::size_t registers = 2;    ///< register layers bunched at the end
  };
  std::vector<Pipeline> pipelines;

  struct Accumulator {
    std::size_t width = 8;
  };
  std::vector<Accumulator> accumulators;

  struct ShiftGroup {
    std::size_t width = 4;   ///< parallel taps sharing the chain head
    std::size_t length = 3;  ///< registers per tap
  };
  std::vector<ShiftGroup> shifts;

  std::size_t counter_bits = 4;  ///< control-section counter width
};

/// Generates the circuit for a profile. The result validates cleanly, has
/// no combinational cycles and every register reachable from the outputs.
Netlist generate_circuit(const CircuitProfile& profile);

/// The ten profiles used by the Table 1/2/3 benchmark harnesses.
std::vector<CircuitProfile> paper_suite();

/// A profile whose generated circuit lands near `target_gates` LUTs,
/// assembled from fixed-size pipeline slices (width 32, depth 24) whose
/// *count* scales, plus proportional accumulator/shift structure and the
/// usual control section. Construction streams block by block and the
/// builder pre-reserves every netlist vector from the profile's closed-form
/// counts, so generating 1e5..1e6-gate designs stays allocation-cheap and
/// linear.
CircuitProfile scaled_profile(std::size_t target_gates, std::uint64_t seed);

/// `count` small randomized profiles ("r00", "r01", ...), fully determined
/// by `seed`: block mix, widths/depths and register-class structure are
/// drawn per circuit, sized so whole corpora stay cheap to run. This is
/// the corpus source for the bulk-flow regression suites (`mcrt corpus`,
/// tests/pipeline/bulk_vs_serial_test.cpp) — keep it deterministic.
std::vector<CircuitProfile> random_suite(std::size_t count,
                                         std::uint64_t seed);

}  // namespace mcrt
