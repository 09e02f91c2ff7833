#include "sim/equivalence.h"

#include <algorithm>
#include <map>
#include <utility>

#include "base/strings.h"
#include "sim/simulator.h"
#include "sim/word_simulator.h"

namespace mcrt {
namespace {

/// Primary inputs and outputs of `a` paired by name with those of `b`.
struct IoPairing {
  std::vector<std::pair<NetId, NetId>> inputs;  ///< (a's net, b's net)
  std::vector<std::string> input_names;
  std::vector<std::pair<std::size_t, std::size_t>> outputs;  ///< PO indices
  std::vector<std::string> output_names;
  /// The first of a's inputs, then outputs, that `b` lacks, as
  /// "input|output <name> missing in <b_label>"; empty when all pair.
  std::string error;
};

IoPairing pair_io_by_name(const Netlist& a, const Netlist& b,
                          std::string_view b_label) {
  IoPairing pairing;
  std::map<std::string, NetId> b_inputs;
  for (const NodeId in : b.inputs()) {
    b_inputs[b.node(in).name] = b.node(in).output;
  }
  for (const NodeId in : a.inputs()) {
    const auto it = b_inputs.find(a.node(in).name);
    if (it == b_inputs.end()) {
      pairing.error = "input " + a.node(in).name + " missing in ";
      pairing.error += b_label;
      return pairing;
    }
    pairing.inputs.push_back({a.node(in).output, it->second});
    pairing.input_names.push_back(a.node(in).name);
  }
  std::map<std::string, std::size_t> b_outputs;
  for (std::size_t i = 0; i < b.outputs().size(); ++i) {
    b_outputs[b.node(b.outputs()[i]).name] = i;
  }
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    const std::string& name = a.node(a.outputs()[i]).name;
    const auto it = b_outputs.find(name);
    if (it == b_outputs.end()) {
      pairing.error = "output " + name + " missing in ";
      pairing.error += b_label;
      return pairing;
    }
    pairing.outputs.push_back({i, it->second});
    pairing.output_names.push_back(name);
  }
  return pairing;
}

/// Registers matched by name between the two circuits (for
/// init_registers_by_name), in original-register order — the order the
/// per-run RNG draws happen in.
std::vector<std::pair<std::uint32_t, std::uint32_t>> matched_registers(
    const Netlist& a, const Netlist& b) {
  std::map<std::string, std::size_t> b_regs;
  for (std::size_t r = 0; r < b.register_count(); ++r) {
    b_regs[b.registers()[r].name] = r;
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t r = 0; r < a.register_count(); ++r) {
    const auto it = b_regs.find(a.registers()[r].name);
    if (it == b_regs.end()) continue;
    pairs.push_back({static_cast<std::uint32_t>(r),
                     static_cast<std::uint32_t>(it->second)});
  }
  return pairs;
}

/// All randomness of one run, drawn in the scalar engine's exact order
/// (register inits first, then cycle-major, input-minor stimulus) so both
/// engines consume the shared Rng stream identically.
struct RunStimulus {
  std::vector<Trit> reg_init;              ///< one per matched register pair
  std::vector<std::vector<Trit>> inputs;   ///< [cycle][input]
};

RunStimulus draw_run(Rng& rng, const EquivalenceOptions& opt,
                     std::size_t matched_regs, std::size_t input_count,
                     const std::vector<bool>& is_reset) {
  RunStimulus stim;
  if (opt.init_registers_by_name) {
    stim.reg_init.reserve(matched_regs);
    for (std::size_t r = 0; r < matched_regs; ++r) {
      stim.reg_init.push_back(rng.chance(0.5) ? Trit::kOne : Trit::kZero);
    }
  }
  stim.inputs.resize(opt.cycles);
  for (std::size_t cycle = 0; cycle < opt.cycles; ++cycle) {
    stim.inputs[cycle].resize(input_count);
    for (std::size_t i = 0; i < input_count; ++i) {
      if (is_reset[i]) {
        stim.inputs[cycle][i] =
            cycle < opt.reset_prefix ? Trit::kOne : Trit::kZero;
      } else {
        stim.inputs[cycle][i] = rng.chance(0.5) ? Trit::kOne : Trit::kZero;
      }
    }
  }
  return stim;
}

EquivalenceResult check_scalar(const Netlist& original,
                               const Netlist& transformed,
                               const EquivalenceOptions& opt,
                               const IoPairing& io,
                               const std::vector<bool>& is_reset) {
  EquivalenceResult result;
  const auto matched = opt.init_registers_by_name
                           ? matched_registers(original, transformed)
                           : std::vector<std::pair<std::uint32_t,
                                                   std::uint32_t>>{};
  Rng rng(opt.seed);
  for (std::size_t run = 0; run < opt.runs; ++run) {
    Simulator sim_a(original);
    Simulator sim_b(transformed);
    const RunStimulus stim =
        draw_run(rng, opt, matched.size(), io.inputs.size(), is_reset);
    for (std::size_t m = 0; m < matched.size(); ++m) {
      sim_a.set_register_state(RegId{matched[m].first}, stim.reg_init[m]);
      sim_b.set_register_state(RegId{matched[m].second}, stim.reg_init[m]);
    }
    for (std::size_t cycle = 0; cycle < opt.cycles; ++cycle) {
      for (std::size_t i = 0; i < io.inputs.size(); ++i) {
        sim_a.set_input(io.inputs[i].first, stim.inputs[cycle][i]);
        sim_b.set_input(io.inputs[i].second, stim.inputs[cycle][i]);
      }
      const auto out_a = sim_a.step();
      const auto out_b = sim_b.step();
      if (cycle < opt.warmup) continue;
      for (std::size_t o = 0; o < io.outputs.size(); ++o) {
        const Trit va = out_a[io.outputs[o].first];
        const Trit vb = out_b[io.outputs[o].second];
        if (va == Trit::kUnknown) continue;  // original undefined: no claim
        if (opt.x_refinement_ok && vb == Trit::kUnknown) continue;
        ++result.compared_defined_outputs;
        if (vb != va) {
          result.equivalent = false;
          result.counterexample = str_format(
              "run %zu cycle %zu output %s: original=%c transformed=%c", run,
              cycle, io.output_names[o].c_str(), trit_char(va), trit_char(vb));
          return result;
        }
      }
    }
  }
  return result;
}

EquivalenceResult check_word(const Netlist& original,
                             const Netlist& transformed,
                             const EquivalenceOptions& opt,
                             const IoPairing& io,
                             const std::vector<bool>& is_reset) {
  EquivalenceResult result;
  const auto matched = opt.init_registers_by_name
                           ? matched_registers(original, transformed)
                           : std::vector<std::pair<std::uint32_t,
                                                   std::uint32_t>>{};
  const CompactNetlist compact_a(original);
  const CompactNetlist compact_b(transformed);
  Rng rng(opt.seed);
  // Runs become word lanes, 64 per chunk: one settle per cycle simulates
  // every run of the chunk.
  for (std::size_t base = 0; base < opt.runs; base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, opt.runs - base);
    std::vector<RunStimulus> stim;
    stim.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      stim.push_back(
          draw_run(rng, opt, matched.size(), io.inputs.size(), is_reset));
    }
    WordSimulator sim_a(compact_a);
    WordSimulator sim_b(compact_b);
    for (std::size_t m = 0; m < matched.size(); ++m) {
      TritWord word{};  // unused lanes stay X, matching a fresh scalar run
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        word.set_lane(static_cast<unsigned>(lane), stim[lane].reg_init[m]);
      }
      sim_a.set_register_state(RegId{matched[m].first}, word);
      sim_b.set_register_state(RegId{matched[m].second}, word);
    }
    // Simulate the chunk, keeping per-cycle output words of both circuits.
    std::vector<std::vector<TritWord>> out_a(opt.cycles);
    std::vector<std::vector<TritWord>> out_b(opt.cycles);
    for (std::size_t cycle = 0; cycle < opt.cycles; ++cycle) {
      for (std::size_t i = 0; i < io.inputs.size(); ++i) {
        TritWord word{};
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          word.set_lane(static_cast<unsigned>(lane),
                        stim[lane].inputs[cycle][i]);
        }
        sim_a.set_input(io.inputs[i].first, word);
        sim_b.set_input(io.inputs[i].second, word);
      }
      out_a[cycle] = sim_a.step();
      out_b[cycle] = sim_b.step();
    }
    // Compare in the scalar engine's run -> cycle -> output order so the
    // defined-output count and first counterexample come out identical.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t run = base + lane;
      for (std::size_t cycle = opt.warmup; cycle < opt.cycles; ++cycle) {
        for (std::size_t o = 0; o < io.outputs.size(); ++o) {
          const Trit va = out_a[cycle][io.outputs[o].first].lane(
              static_cast<unsigned>(lane));
          const Trit vb = out_b[cycle][io.outputs[o].second].lane(
              static_cast<unsigned>(lane));
          if (va == Trit::kUnknown) continue;  // original undefined: no claim
          if (opt.x_refinement_ok && vb == Trit::kUnknown) continue;
          ++result.compared_defined_outputs;
          if (vb != va) {
            result.equivalent = false;
            result.counterexample = str_format(
                "run %zu cycle %zu output %s: original=%c transformed=%c",
                run, cycle, io.output_names[o].c_str(), trit_char(va),
                trit_char(vb));
            return result;
          }
        }
      }
    }
  }
  return result;
}

}  // namespace

bool looks_like_reset(std::string_view name) {
  return name.find("rst") != std::string_view::npos ||
         name.find("reset") != std::string_view::npos ||
         name.find("__por") != std::string_view::npos;
}

EquivalenceResult check_sequential_equivalence(const Netlist& original,
                                               const Netlist& transformed,
                                               const EquivalenceOptions& opt) {
  EquivalenceResult result;
  const IoPairing io = pair_io_by_name(original, transformed, "transformed");
  if (!io.error.empty()) {
    result.equivalent = false;
    result.counterexample = io.error;
    return result;
  }

  std::vector<bool> is_reset(io.inputs.size(), false);
  for (std::size_t i = 0; i < io.inputs.size(); ++i) {
    if (opt.reset_inputs.empty()) {
      is_reset[i] = looks_like_reset(io.input_names[i]);
    } else {
      is_reset[i] = std::find(opt.reset_inputs.begin(), opt.reset_inputs.end(),
                              io.input_names[i]) != opt.reset_inputs.end();
    }
  }

  return opt.engine == EquivalenceOptions::Engine::kWord
             ? check_word(original, transformed, opt, io, is_reset)
             : check_scalar(original, transformed, opt, io, is_reset);
}

}  // namespace mcrt
