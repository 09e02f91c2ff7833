#include "sim/word_simulator.h"

#include <stdexcept>

namespace mcrt {
namespace {

/// One LUT over 64 lanes, reading the truth table as a raw positional word.
/// Dual-rail lift: a lane is 1 iff no consistent completion of its X pins
/// reaches the off-set (and symmetrically for 0), the word-parallel form of
/// the lift the ternary BMC uses.
TritWord eval_flat(std::uint64_t bits, std::uint32_t arity,
                   const TritWord* pins) {
  std::uint64_t on_reachable = 0;
  std::uint64_t off_reachable = 0;
  for (std::uint32_t row = 0; row < (1u << arity); ++row) {
    std::uint64_t consistent = ~0ull;
    for (std::uint32_t i = 0; i < arity; ++i) {
      consistent &= ((row >> i) & 1) ? ~pins[i].zeros : ~pins[i].ones;
      if (consistent == 0) break;
    }
    if ((bits >> row) & 1) {
      on_reachable |= consistent;
    } else {
      off_reachable |= consistent;
    }
  }
  return {on_reachable & ~off_reachable, off_reachable & ~on_reachable};
}

}  // namespace

TritWord tritword_ite(TritWord ctrl, TritWord a, TritWord b) {
  const std::uint64_t x = ~ctrl.ones & ~ctrl.zeros;
  TritWord out;
  out.ones = (ctrl.ones & a.ones) | (ctrl.zeros & b.ones) |
             (x & a.ones & b.ones);
  out.zeros = (ctrl.ones & a.zeros) | (ctrl.zeros & b.zeros) |
              (x & a.zeros & b.zeros);
  return out;
}

WordSimulator::WordSimulator(const Netlist& netlist)
    : WordSimulator(CompactNetlist(netlist)) {}

WordSimulator::WordSimulator(CompactNetlist compact)
    : compact_(std::move(compact)) {
  if (!compact_.acyclic()) {
    throw std::invalid_argument(
        "WordSimulator: combinational cycle in netlist");
  }
  reset_to_unknown();
}

void WordSimulator::reset_to_unknown() {
  net_values_.assign(compact_.net_count(), TritWord{});
  reg_state_.assign(compact_.register_count(), TritWord{});
  input_values_.assign(compact_.net_count(), TritWord{});
}

void WordSimulator::set_input(NetId input_net, TritWord value) {
  input_values_[input_net.index()] = value;
}

TritWord WordSimulator::reg_output(std::uint32_t reg_index) const {
  const TritWord state = reg_state_[reg_index];
  const std::uint32_t async = compact_.reg_async(reg_index);
  if (async == CompactNetlist::kNoNet) return state;
  return tritword_ite(net_values_[async],
                      TritWord::all(reset_val_trit(
                          compact_.reg_async_val(reg_index))),
                      state);
}

bool WordSimulator::sweep() {
  bool changed = false;
  const std::uint32_t regs = compact_.register_count();
  for (std::uint32_t r = 0; r < regs; ++r) {
    const std::uint32_t q = compact_.reg_q(r);
    const TritWord value = reg_output(r);
    if (!(net_values_[q] == value)) {
      net_values_[q] = value;
      changed = true;
    }
  }
  for (const std::uint32_t in : compact_.input_nodes()) {
    const std::uint32_t net = compact_.node_output(in);
    if (!(net_values_[net] == input_values_[net])) {
      net_values_[net] = input_values_[net];
      changed = true;
    }
  }
  TritWord pins[TruthTable::kMaxInputs];
  for (const std::uint32_t v : compact_.comb_order()) {
    const std::span<const std::uint32_t> fanins = compact_.fanins(v);
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      pins[i] = net_values_[fanins[i]];
    }
    const TritWord value =
        eval_flat(compact_.tt_bits(v), compact_.tt_arity(v), pins);
    const std::uint32_t out = compact_.node_output(v);
    if (!(net_values_[out] == value)) {
      net_values_[out] = value;
      changed = true;
    }
  }
  return changed;
}

void WordSimulator::settle() {
  if (!compact_.has_async()) {
    // Without async overrides nothing feeds back within a cycle: register
    // outputs and inputs are constants for the sweep and the topological
    // pass finalizes every net, so the first sweep is the fixed point the
    // iteration below would converge to.
    sweep();
    return;
  }
  const std::size_t bound = compact_.register_count() + 2;
  for (std::size_t iter = 0; iter <= bound + 1; ++iter) {
    if (!sweep()) return;
    if (iter == bound) {
      // Non-convergent async loop: degrade the involved lanes to X
      // (pessimistic, same policy as the scalar simulator).
      const std::uint32_t regs = compact_.register_count();
      for (std::uint32_t r = 0; r < regs; ++r) {
        const std::uint32_t async = compact_.reg_async(r);
        if (async == CompactNetlist::kNoNet) continue;
        const TritWord ctrl = net_values_[async];
        const std::uint64_t not_stable_zero = ~ctrl.zeros;
        TritWord& q = net_values_[compact_.reg_q(r)];
        q.ones &= ~not_stable_zero;
        q.zeros &= ~not_stable_zero;
        reg_state_[r].ones &= ~not_stable_zero;
        reg_state_[r].zeros &= ~not_stable_zero;
      }
    }
  }
}

std::vector<TritWord> WordSimulator::output_values() const {
  std::vector<TritWord> values;
  values.reserve(compact_.output_nodes().size());
  for (const std::uint32_t po : compact_.output_nodes()) {
    values.push_back(net_values_[compact_.fanins(po)[0]]);
  }
  return values;
}

void WordSimulator::clock_edge() {
  const std::uint32_t regs = compact_.register_count();
  for (std::uint32_t r = 0; r < regs; ++r) {
    const TritWord current = net_values_[compact_.reg_q(r)];
    TritWord value = net_values_[compact_.reg_d(r)];
    const std::uint32_t en = compact_.reg_en(r);
    if (en != CompactNetlist::kNoNet) {
      value = tritword_ite(net_values_[en], value, current);
    }
    const std::uint32_t sync = compact_.reg_sync(r);
    if (sync != CompactNetlist::kNoNet) {
      value = tritword_ite(net_values_[sync],
                           TritWord::all(reset_val_trit(
                               compact_.reg_sync_val(r))),
                           value);
    }
    const std::uint32_t async = compact_.reg_async(r);
    if (async != CompactNetlist::kNoNet) {
      value = tritword_ite(net_values_[async],
                           TritWord::all(reset_val_trit(
                               compact_.reg_async_val(r))),
                           value);
    }
    reg_state_[r] = value;
  }
}

std::vector<TritWord> WordSimulator::step() {
  settle();
  auto outputs = output_values();
  clock_edge();
  return outputs;
}

}  // namespace mcrt
