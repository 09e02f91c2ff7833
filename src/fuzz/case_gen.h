// Deterministic sampling of differential fuzz cases.
//
// Case i of a run is fully determined by (base seed, i): the circuit is
// drawn from a mix of the property-test random circuits, the workload
// generator's randomized profiles, a register-class zoo chain (one
// register per EN/sync/async class) and a dual-clock rig; the flow script
// is drawn from a small grammar over the registered passes; the oracle
// rotates round-robin so any four consecutive indices cover every engine
// pair. Replaying a CI failure therefore needs only the printed case seed.
#pragma once

#include <cstdint>

#include "fuzz/fuzz_case.h"

namespace mcrt {

/// The per-case seed: a splitmix64-style mix of base seed and index, so
/// cases are independent and `mcrt fuzz --seed <case_seed> --cases 1`
/// regenerates exactly one case.
[[nodiscard]] std::uint64_t fuzz_case_seed(std::uint64_t base_seed,
                                           std::size_t index);

/// Samples case `index` of the run seeded with `base_seed`. Deterministic:
/// the same pair yields an identical script and a structurally identical
/// netlist. The oracle is `index % kOracleCount`.
[[nodiscard]] FuzzCase generate_fuzz_case(std::uint64_t base_seed,
                                          std::size_t index);

/// Samples the case whose case seed is `case_seed` directly, with a fixed
/// oracle — the replay entry point behind `mcrt fuzz --seed N`.
[[nodiscard]] FuzzCase generate_fuzz_case_from_seed(std::uint64_t case_seed,
                                                    OracleKind oracle);

/// One register per EN/sync/async class signature chained D -> Q — plus an
/// enable-chained pair sharing one enable net and an EN+sync-reset combo —
/// with a randomized combinational tail. Exposed for the register-class
/// differentials.
[[nodiscard]] Netlist register_class_zoo(std::uint64_t seed);

/// Two pipelines in separate clock domains converging on one gate — the
/// multi-clock shape whose behavioural oracle legs must skip.
[[nodiscard]] Netlist dual_clock_rig(std::uint64_t seed);

}  // namespace mcrt
