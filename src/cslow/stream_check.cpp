#include "cslow/stream_check.h"

#include <algorithm>
#include <set>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "cslow/cslow.h"
#include "netlist/compact.h"
#include "sim/equivalence.h"
#include "sim/word_simulator.h"

namespace mcrt {
namespace {

/// Primary-input nets in the combinational support of any register's async
/// control. Returns false when a cone crosses a register output (the
/// phase-constant discipline cannot then be imposed from the inputs).
bool async_input_support(const Netlist& netlist, std::set<std::uint32_t>* pis) {
  std::vector<NetId> frontier;
  std::set<std::uint32_t> seen;
  for (const Register& reg : netlist.registers()) {
    if (reg.async_ctrl.valid()) frontier.push_back(reg.async_ctrl);
  }
  while (!frontier.empty()) {
    const NetId net = frontier.back();
    frontier.pop_back();
    if (!seen.insert(net.value()).second) continue;
    const NetDriver driver = netlist.net(net).driver;
    if (driver.kind == NetDriver::Kind::kRegister) return false;
    if (driver.kind != NetDriver::Kind::kNode) continue;
    const Node& node = netlist.node(NodeId{driver.index});
    if (node.kind == NodeKind::kInput) {
      pis->insert(net.value());
      continue;
    }
    for (const NetId fanin : node.fanins) frontier.push_back(fanin);
  }
  return true;
}

std::size_t clock_domains(const Netlist& netlist) {
  std::set<std::uint32_t> clks;
  for (const Register& reg : netlist.registers()) {
    if (reg.clk.valid()) clks.insert(reg.clk.value());
  }
  return clks.size();
}

StreamCheckResult skip(std::string reason) {
  StreamCheckResult result;
  result.skipped = true;
  result.reason = std::move(reason);
  return result;
}

}  // namespace

StreamCheckResult check_stream_equivalence(const Netlist& original,
                                           const Netlist& cslowed,
                                           std::uint32_t factor,
                                           const StreamCheckOptions& options) {
  StreamCheckResult result;
  if (factor == 0 || factor > kMaxCslowFactor) {
    result.pass = false;
    result.reason = str_format("cslow factor %u out of range", factor);
    return result;
  }
  if (clock_domains(original) > 1) {
    return skip("multi-clock design: interleaved simulation is single-clock");
  }
  std::set<std::uint32_t> async_pis;
  if (!async_input_support(original, &async_pis)) {
    return skip(
        "async control cone crosses a register: phase-constant stimulus "
        "cannot be imposed from the inputs");
  }

  const IoPairing io =
      pair_io_by_name(original, cslowed, "C-slowed netlist");
  if (!io.error.empty()) {
    result.pass = false;
    result.reason = io.error;
    return result;
  }

  // Input classes: reset-shaped inputs see a per-stream reset prefix;
  // async-cone inputs are phase-constant (one value per rotation, shared by
  // every stream); everything else draws per-stream random trits.
  std::vector<bool> is_reset(io.inputs.size()), is_shared(io.inputs.size());
  for (std::size_t i = 0; i < io.inputs.size(); ++i) {
    is_reset[i] = looks_like_reset(io.input_names[i]);
    is_shared[i] = async_pis.count(io.inputs[i].first.value()) != 0;
  }

  const CompactNetlist compact_ref(original);
  const CompactNetlist compact_cs(cslowed);
  Rng rng(options.seed);
  const std::size_t cycles = std::max<std::size_t>(options.cycles, 1);

  for (std::size_t base = 0; base < options.runs; base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, options.runs - base);
    // stim[s][k][i] = input word for stream s, stream-cycle k, input i
    // (lanes = independent runs). Shared (async-cone / reset) inputs use
    // stream 0's draw for every stream.
    std::vector<std::vector<std::vector<TritWord>>> stim(
        factor, std::vector<std::vector<TritWord>>(
                    cycles, std::vector<TritWord>(io.inputs.size())));
    for (std::size_t s = 0; s < factor; ++s) {
      for (std::size_t k = 0; k < cycles; ++k) {
        for (std::size_t i = 0; i < io.inputs.size(); ++i) {
          if (s > 0 && (is_shared[i] || is_reset[i])) {
            stim[s][k][i] = stim[0][k][i];
            continue;
          }
          TritWord word{};
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            Trit t;
            if (is_reset[i]) {
              t = k < options.reset_prefix ? Trit::kOne : Trit::kZero;
            } else {
              t = rng.chance(0.5) ? Trit::kOne : Trit::kZero;
            }
            word.set_lane(static_cast<unsigned>(lane), t);
          }
          stim[s][k][i] = word;
        }
      }
    }

    // C reference passes: copy s of the original on stream s's stimulus.
    std::vector<std::vector<std::vector<TritWord>>> ref(factor);
    for (std::size_t s = 0; s < factor; ++s) {
      WordSimulator sim(compact_ref);
      ref[s].resize(cycles);
      for (std::size_t k = 0; k < cycles; ++k) {
        for (std::size_t i = 0; i < io.inputs.size(); ++i) {
          sim.set_input(io.inputs[i].first, stim[s][k][i]);
        }
        ref[s][k] = sim.step();
      }
    }

    // One interleaved pass: cycle t drives stream t%C at its cycle t/C and
    // must (up to the ternary contract) reproduce that reference output.
    WordSimulator sim(compact_cs);
    for (std::size_t t = 0; t < factor * cycles; ++t) {
      const std::size_t s = t % factor;
      const std::size_t k = t / factor;
      for (std::size_t i = 0; i < io.inputs.size(); ++i) {
        sim.set_input(io.inputs[i].second, stim[s][k][i]);
      }
      const std::vector<TritWord> out = sim.step();
      if (k < options.warmup) continue;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (std::size_t o = 0; o < io.outputs.size(); ++o) {
          const Trit va =
              ref[s][k][io.outputs[o].first].lane(static_cast<unsigned>(lane));
          const Trit vb =
              out[io.outputs[o].second].lane(static_cast<unsigned>(lane));
          if (va == Trit::kUnknown) continue;  // reference undefined: no claim
          if (options.x_refinement_ok && vb == Trit::kUnknown) continue;
          ++result.compared_defined_outputs;
          if (vb != va) {
            result.pass = false;
            result.reason = str_format(
                "run %zu stream %zu cycle %zu output %s: reference=%c "
                "cslowed=%c",
                base + lane, s, k, io.output_names[o].c_str(), trit_char(va),
                trit_char(vb));
            return result;
          }
        }
      }
    }
  }
  return result;
}

CslowVerifyResult verify_cslow(const Netlist& original, const Netlist& cslowed,
                               std::uint32_t factor,
                               const CslowVerifyOptions& options) {
  CslowVerifyResult result;
  result.sim = check_stream_equivalence(original, cslowed, factor, options.sim);
  result.pass = result.sim.pass;

  if (!options.enable_bmc) {
    result.bmc_skipped = true;
    result.bmc_detail = "disabled";
    return result;
  }
  // BMC leg: the retimed C-slowed netlist against a fresh pure transform —
  // same PIs/POs, standard same-input equivalence, exhaustive to the bound.
  // Unlike the interleaved simulation this needs no stream bookkeeping, so
  // it covers multi-clock and register-fed-async designs the sim leg skips.
  const Netlist::Stats stats = original.stats();
  if (stats.luts > options.bmc_max_luts ||
      stats.inputs > options.bmc_max_inputs) {
    result.bmc_skipped = true;
    result.bmc_detail = str_format(
        "circuit too large for ternary BMC (%zu luts, %zu inputs)", stats.luts,
        stats.inputs);
    return result;
  }
  CslowResult transformed = cslow_transform(original, factor);
  if (!transformed.success) {
    result.pass = false;
    result.bmc_detail = transformed.error;
    return result;
  }
  TernaryBmcOptions bmc;
  bmc.depth = options.bmc_depth;
  // The retime after the transform relocates decomposed EN/sync logic
  // across chain registers; like forward-EN retiming this can refine X.
  bmc.x_refinement_ok = true;
  bmc.cancel = options.cancel;
  const TernaryBmcResult verdict =
      check_ternary_bmc(transformed.netlist, cslowed, bmc);
  switch (verdict.verdict) {
    case TernaryBmcResult::Verdict::kEquivalentUpToDepth:
      result.bmc_detail =
          str_format("equivalent to depth %zu", options.bmc_depth);
      break;
    case TernaryBmcResult::Verdict::kMismatch:
      result.pass = false;
      result.bmc_detail = str_format("mismatch at cycle %zu: %s",
                                     verdict.mismatch_cycle,
                                     verdict.detail.c_str());
      break;
    case TernaryBmcResult::Verdict::kUnsupported:
    case TernaryBmcResult::Verdict::kResourceLimit:
      result.bmc_skipped = true;
      result.bmc_detail = verdict.detail;
      break;
  }
  return result;
}

}  // namespace mcrt
