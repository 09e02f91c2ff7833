#include "workload/generator.h"

#include <algorithm>
#include <cassert>

#include "base/rng.h"
#include "base/strings.h"

namespace mcrt {
namespace {

/// Builder state shared by the block constructors.
class CircuitBuilder {
 public:
  explicit CircuitBuilder(const CircuitProfile& profile)
      : profile_(profile), rng_(profile.seed) {}

  Netlist run() {
    reserve_from_profile();
    clk_ = netlist_.add_input("clk");
    if (profile_.use_async) rst_ = netlist_.add_input("rst");
    for (std::size_t i = 0; i < profile_.data_inputs; ++i) {
      data_.push_back(netlist_.add_input(str_format("in%zu", i)));
    }
    build_control_section();
    std::size_t block = 0;
    for (const auto& p : profile_.pipelines) {
      build_pipeline(p, block++);
    }
    for (const auto& a : profile_.accumulators) {
      build_accumulator(a, block++);
    }
    for (const auto& s : profile_.shifts) {
      build_shift_group(s, block++);
    }
    emit_outputs();
    return std::move(netlist_);
  }

 private:
  /// The profile states every block's element counts, so the expected
  /// totals are a closed-form sum; reserving them up front keeps the
  /// netlist vectors from reallocating while blocks are appended. Slight
  /// over-estimates are fine (reserve is capacity, not size).
  void reserve_from_profile() {
    std::size_t regs = profile_.counter_bits;
    std::size_t luts = 4 * profile_.counter_bits +
                       4 * profile_.control_signals + 8;
    for (const auto& p : profile_.pipelines) {
      luts += p.width * p.depth + p.width;
      regs += p.width * p.registers;
    }
    for (const auto& a : profile_.accumulators) {
      luts += 3 * a.width;
      regs += a.width;
    }
    for (const auto& s : profile_.shifts) {
      luts += s.width + 2;
      regs += s.width * s.length;
    }
    const std::size_t ios = profile_.data_inputs + 2 + luts / 4 + 8;
    const std::size_t nodes = luts + ios;
    netlist_.reserve(nodes + regs, nodes, regs);
  }

  struct ControlSet {
    NetId en;          ///< invalid = no enable
    NetId sync_ctrl;   ///< invalid = none
    ResetVal sync_val = ResetVal::kDontCare;
    NetId async_ctrl;  ///< invalid = none
    ResetVal async_val = ResetVal::kDontCare;
  };

  NetId random_gate(std::vector<NetId> fanins) {
    const std::size_t arity = fanins.size();
    TruthTable tt;
    switch (rng_.below(4)) {
      case 0: tt = TruthTable::and_n(static_cast<std::uint32_t>(arity)); break;
      case 1: tt = TruthTable::or_n(static_cast<std::uint32_t>(arity)); break;
      case 2: tt = TruthTable::xor_n(static_cast<std::uint32_t>(arity)); break;
      default:
        tt = TruthTable::nand_n(static_cast<std::uint32_t>(arity));
        break;
    }
    return netlist_.add_lut(tt, std::move(fanins));
  }

  NetId pick(const std::vector<NetId>& pool) {
    return pool[rng_.below(pool.size())];
  }

  /// A register with the given control set.
  NetId make_reg(NetId d, const ControlSet& ctrl, const std::string& name) {
    Register spec;
    spec.d = d;
    spec.clk = clk_;
    spec.en = ctrl.en;
    spec.sync_ctrl = ctrl.sync_ctrl;
    spec.sync_val = ctrl.sync_ctrl.valid() ? ctrl.sync_val
                                           : ResetVal::kDontCare;
    spec.async_ctrl = ctrl.async_ctrl;
    spec.async_val = ctrl.async_ctrl.valid() ? ctrl.async_val
                                             : ResetVal::kDontCare;
    spec.name = name;
    return netlist_.add_register(std::move(spec));
  }

  void build_control_section() {
    // A ripple-enable counter: bit i toggles when all lower bits are 1.
    // Counter registers use the plain (async-only) class.
    ControlSet counter_ctrl;
    if (rst_.valid()) {
      counter_ctrl.async_ctrl = rst_;
      counter_ctrl.async_val = ResetVal::kZero;
    }
    std::vector<NetId> bits;
    NetId carry;  // all lower bits set
    for (std::size_t b = 0; b < profile_.counter_bits; ++b) {
      // Placeholder D: fixed after Q nets exist (feedback). We build the
      // feedback by creating the register on a fresh D net that we then
      // drive with the toggle logic reading the register outputs.
      const NetId d = netlist_.add_net(str_format("cnt%zu_d", b));
      Register spec;
      spec.d = d;
      spec.clk = clk_;
      spec.async_ctrl = counter_ctrl.async_ctrl;
      spec.async_val = counter_ctrl.async_ctrl.valid() ? ResetVal::kZero
                                                       : ResetVal::kDontCare;
      spec.name = str_format("cnt%zu", b);
      const NetId q = netlist_.add_register(std::move(spec));
      bits.push_back(q);
      // toggle = q XOR carry ; first bit toggles every cycle.
      NetId toggle;
      if (b == 0) {
        toggle = netlist_.add_lut(TruthTable::inverter(), {q});
        carry = q;
      } else {
        toggle = netlist_.add_lut(TruthTable::xor_n(2), {q, carry});
        carry = netlist_.add_lut(TruthTable::and_n(2), {carry, q});
      }
      netlist_.add_lut_driving(d, TruthTable::buffer(), {toggle});
    }

    // Control signals: decode cones over the counter plus data inputs.
    const std::size_t n = std::max<std::size_t>(profile_.control_signals, 1);
    for (std::size_t i = 0; i < n; ++i) {
      ControlSet ctrl;
      if (rst_.valid() && profile_.use_async && rng_.chance(0.8)) {
        // Most registers clear on the global reset; some use a *derived*
        // reset (OR of rst with a soft-reset condition), giving distinct
        // async classes whose control cones pass through logic - the case
        // the paper's control-tap pseudo-outputs exist for.
        if (rng_.chance(0.3) && !data_.empty()) {
          const NetId soft = netlist_.add_lut(
              TruthTable::and_n(2), {pick(data_), pick(data_)},
              str_format("soft_rst%zu", i));
          ctrl.async_ctrl = netlist_.add_lut(TruthTable::or_n(2),
                                             {rst_, soft},
                                             str_format("arst%zu", i));
        } else {
          ctrl.async_ctrl = rst_;
        }
        ctrl.async_val = rng_.chance(0.25) ? ResetVal::kOne : ResetVal::kZero;
      }
      if (profile_.use_en && (i != 0 || n == 1)) {
        // Structurally and functionally distinct decode per control set:
        // rotate through counter-bit pairs plus a data input, with a bank
        // of non-degenerate 3-input functions. Distinct functions over
        // distinct cones keep the BDD class analysis from merging them
        // (real designs have one enable condition per interface).
        static constexpr std::uint64_t kDecodeFunctions[] = {
            0xE8, 0x96, 0xD4, 0xB2, 0x71, 0x2B, 0x4D, 0x17,
            0x69, 0x8E, 0x3C, 0xA5, 0x5A, 0xC3, 0x36, 0xD9,
        };
        const NetId x = bits[i % bits.size()];
        const NetId y = bits[(i / bits.size() + i + 1) % bits.size()];
        const NetId z = data_.empty() ? bits[0] : data_[i % data_.size()];
        const TruthTable tt(3, kDecodeFunctions[i % 16]);
        ctrl.en = netlist_.add_lut(tt, {x, y, z}, str_format("en%zu", i));
      }
      if (profile_.use_sync && rng_.chance(0.5)) {
        ctrl.sync_ctrl = netlist_.add_lut(TruthTable::and_n(2),
                                          {pick(bits), pick(bits)},
                                          str_format("sclr%zu", i));
        ctrl.sync_val = rng_.chance(0.5) ? ResetVal::kOne : ResetVal::kZero;
      }
      controls_.push_back(ctrl);
    }
    // Counter bits are observable (keeps the control section live).
    taps_.push_back(carry);
  }

  const ControlSet& control_for_block(std::size_t block) {
    return controls_[block % controls_.size()];
  }

  void build_pipeline(const CircuitProfile::Pipeline& p, std::size_t block) {
    std::vector<NetId> layer;
    for (std::size_t i = 0; i < p.width; ++i) layer.push_back(pick(data_));
    // All register layers sit bunched about two thirds into the cascade
    // (the HDL "register the result a few times" idiom): retiming has to
    // spread them both ways to balance the stages, and the trailing
    // combinational depth keeps minarea from draining them into the
    // output compression logic.
    const std::size_t insert_after =
        p.depth == 0 ? 0 : 1 + (p.depth * 2) / 3;
    for (std::size_t d = 0; d < p.depth; ++d) {
      std::vector<NetId> next;
      for (std::size_t i = 0; i < p.width; ++i) {
        const std::size_t arity = 2 + rng_.below(3);  // 2..4
        std::vector<NetId> fanins;
        // Mostly previous layer, occasionally a fresh input (keeps cones
        // wide and the mapped depth realistic).
        for (std::size_t k = 0; k < arity; ++k) {
          fanins.push_back(rng_.chance(0.9) ? pick(layer) : pick(data_));
        }
        next.push_back(random_gate(std::move(fanins)));
      }
      layer = std::move(next);
      if (d + 1 == insert_after) {
        for (std::size_t r = 0; r < p.registers; ++r) {
          // Each pipeline stage has its own stall condition (distinct
          // control set), as real interfaces do; this drives the class
          // count toward the configured number of control signals.
          const ControlSet& ctrl = control_for_block(block + 3 * r);
          for (std::size_t i = 0; i < p.width; ++i) {
            layer[i] = make_reg(layer[i], ctrl,
                                str_format("p%zu_r%zu_%zu", block, r, i));
          }
        }
      }
    }
    for (const NetId n : layer) taps_.push_back(n);
  }

  void build_accumulator(const CircuitProfile::Accumulator& a,
                         std::size_t block) {
    const ControlSet& ctrl = control_for_block(block);
    // acc' = acc XOR (in AND acc_rot): a feedback datapath with one
    // register layer; retiming cannot pull registers out of the loop, but
    // the input cone can absorb some.
    std::vector<NetId> state_d;
    std::vector<NetId> state_q;
    for (std::size_t i = 0; i < a.width; ++i) {
      const NetId d = netlist_.add_net(str_format("acc%zu_d%zu", block, i));
      Register spec;
      spec.d = d;
      spec.clk = clk_;
      spec.en = ctrl.en;
      spec.async_ctrl = ctrl.async_ctrl;
      spec.async_val =
          ctrl.async_ctrl.valid() ? ctrl.async_val : ResetVal::kDontCare;
      spec.sync_ctrl = ctrl.sync_ctrl;
      spec.sync_val =
          ctrl.sync_ctrl.valid() ? ctrl.sync_val : ResetVal::kDontCare;
      spec.name = str_format("acc%zu_%zu", block, i);
      state_q.push_back(netlist_.add_register(std::move(spec)));
      state_d.push_back(d);
    }
    for (std::size_t i = 0; i < a.width; ++i) {
      const NetId rotated = state_q[(i + 1) % a.width];
      const NetId input = pick(data_);
      const NetId masked =
          netlist_.add_lut(TruthTable::and_n(2), {input, rotated});
      const NetId next =
          netlist_.add_lut(TruthTable::xor_n(2), {state_q[i], masked});
      netlist_.add_lut_driving(state_d[i], TruthTable::buffer(), {next});
    }
    taps_.push_back(state_q[0]);
    taps_.push_back(state_q[a.width / 2]);
  }

  void build_shift_group(const CircuitProfile::ShiftGroup& s,
                         std::size_t block) {
    const ControlSet& ctrl = control_for_block(block);
    // A delay line: one register chain with `width` taps at staggered
    // depths (the realistic shared-shift-register idiom; tap depth cycles
    // through the chain). Exercises the fanout-sharing cost model.
    const NetId head = random_gate({pick(data_), pick(data_)});
    std::vector<NetId> chain{head};
    for (std::size_t k = 0; k < s.length; ++k) {
      chain.push_back(make_reg(chain.back(), ctrl,
                               str_format("sh%zu_%zu", block, k)));
    }
    for (std::size_t t = 0; t < s.width; ++t) {
      const NetId tap = chain[1 + (t % s.length)];
      // Light per-tap logic so the taps stay distinct.
      taps_.push_back(
          netlist_.add_lut(TruthTable::xor_n(2), {tap, pick(data_)}));
    }
  }

  void emit_outputs() {
    // XOR-compress taps pairwise until a manageable output count, then one
    // PO per remaining tap: everything stays observable.
    std::vector<NetId> nets = taps_;
    while (nets.size() > 16) {
      std::vector<NetId> next;
      for (std::size_t i = 0; i + 1 < nets.size(); i += 2) {
        next.push_back(
            netlist_.add_lut(TruthTable::xor_n(2), {nets[i], nets[i + 1]}));
      }
      if (nets.size() % 2) next.push_back(nets.back());
      nets = std::move(next);
    }
    for (std::size_t i = 0; i < nets.size(); ++i) {
      netlist_.add_output(str_format("out%zu", i), nets[i]);
    }
  }

  const CircuitProfile& profile_;
  Rng rng_;
  Netlist netlist_;
  NetId clk_;
  NetId rst_;
  std::vector<NetId> data_;
  std::vector<ControlSet> controls_;
  std::vector<NetId> taps_;
};

}  // namespace

Netlist generate_circuit(const CircuitProfile& profile) {
  return CircuitBuilder(profile).run();
}

std::vector<CircuitProfile> paper_suite() {
  std::vector<CircuitProfile> suite;
  auto make = [&](const std::string& name, std::uint64_t seed, bool async,
                  bool en, std::size_t signals) {
    CircuitProfile p;
    p.name = name;
    p.seed = seed;
    p.use_async = async;
    p.use_en = en;
    p.control_signals = signals;
    suite.push_back(p);
    return suite.size() - 1;
  };

  {  // C1: small, AS/AC + EN, ~35 FF / ~90 LUT, 8 classes
    const auto i = make("C1", 101, true, true, 8);
    suite[i].pipelines = {{6, 9, 2}, {4, 7, 2}};
    suite[i].accumulators = {{6}};
    suite[i].shifts = {{3, 6}};
    suite[i].counter_bits = 3;
  }
  {  // C2: tiny register count, logic-heavy, 3 classes
    const auto i = make("C2", 102, true, true, 3);
    suite[i].pipelines = {{5, 16, 1}};
    suite[i].accumulators = {{4}};
    suite[i].counter_bits = 3;
  }
  {  // C3: EN only (no async), 4 classes
    const auto i = make("C3", 103, false, true, 4);
    suite[i].pipelines = {{5, 8, 2}};
    suite[i].shifts = {{5, 8}};
    suite[i].counter_bits = 3;
  }
  {  // C4: the big pipeline design, EN only, 11 classes
    const auto i = make("C4", 104, false, true, 11);
    suite[i].data_inputs = 16;
    suite[i].pipelines = {{20, 18, 4}, {20, 15, 4}, {14, 14, 3}, {14, 12, 3},
                          {10, 12, 2}};
    suite[i].accumulators = {{16}, {12}};
    suite[i].shifts = {{4, 12}};
    suite[i].counter_bits = 5;
  }
  {  // C5: AS/AC but no enables, 15 classes come from sync decodes
    const auto i = make("C5", 105, true, false, 15);
    suite[i].use_sync = true;
    suite[i].pipelines = {{8, 8, 2}, {6, 6, 2}};
    suite[i].shifts = {{8, 20}, {6, 16}};
    suite[i].accumulators = {{8}};
    suite[i].counter_bits = 4;
  }
  {  // C6: the big single-class design: async only, one shared reset
    const auto i = make("C6", 106, true, false, 1);
    suite[i].data_inputs = 16;
    suite[i].pipelines = {{24, 10, 8}, {24, 10, 8}, {20, 8, 7}, {20, 8, 7},
                          {16, 8, 6}};
    suite[i].shifts = {{10, 60}, {10, 40}};
    suite[i].counter_bits = 4;
  }
  {  // C7: control-heavy design, 40 classes
    const auto i = make("C7", 107, true, true, 40);
    suite[i].data_inputs = 12;
    suite[i].pipelines = {{12, 7, 4}, {10, 7, 4}, {10, 6, 3}, {8, 6, 3},
                          {8, 5, 3}, {8, 5, 3}};
    suite[i].accumulators = {{10}, {10}, {8}, {8}, {10}};
    suite[i].shifts = {{6, 20}, {6, 20}};
    suite[i].counter_bits = 5;
  }
  {  // C8: EN only, mid-size
    const auto i = make("C8", 108, false, true, 7);
    suite[i].pipelines = {{8, 8, 3}, {6, 6, 2}};
    suite[i].accumulators = {{8}};
    suite[i].shifts = {{6, 20}};
    suite[i].counter_bits = 4;
  }
  {  // C9: logic-heavy relative to registers
    const auto i = make("C9", 109, true, true, 6);
    suite[i].data_inputs = 12;
    suite[i].pipelines = {{12, 18, 3}, {10, 16, 2}};
    suite[i].accumulators = {{6}};
    suite[i].counter_bits = 4;
  }
  {  // C10: larger mixed design
    const auto i = make("C10", 110, true, true, 5);
    suite[i].data_inputs = 12;
    suite[i].pipelines = {{16, 16, 4}, {14, 14, 3}, {12, 12, 3}};
    suite[i].accumulators = {{10}};
    suite[i].shifts = {{8, 28}};
    suite[i].counter_bits = 4;
  }
  return suite;
}

CircuitProfile scaled_profile(std::size_t target_gates, std::uint64_t seed) {
  CircuitProfile p;
  p.name = target_gates % 1000000 == 0
               ? str_format("s%zum", target_gates / 1000000)
               : str_format("s%zuk", target_gates / 1000);
  p.seed = seed;
  p.use_async = true;
  p.use_en = true;
  p.control_signals = 8;
  p.data_inputs = 32;
  p.counter_bits = 6;
  // Fixed-size pipeline slices; only the count scales, so per-window
  // structure (and the partitioner's job) is the same at every size.
  constexpr std::size_t kWidth = 32;
  constexpr std::size_t kDepth = 24;
  constexpr std::size_t kSliceGates = kWidth * kDepth + kWidth;
  const std::size_t slices =
      std::max<std::size_t>(1, target_gates / kSliceGates);
  p.pipelines.reserve(slices);
  for (std::size_t i = 0; i < slices; ++i) {
    p.pipelines.push_back({kWidth, kDepth, 1 + i % 3});
  }
  // Feedback and shared-shift structure in proportion, so min-area and
  // class analysis see the same block mix as the Table-1 profiles.
  for (std::size_t i = 0; i + 1 < slices / 16 + 1; ++i) {
    p.accumulators.push_back({16});
  }
  for (std::size_t i = 0; i + 1 < slices / 24 + 1; ++i) {
    p.shifts.push_back({8, 12});
  }
  return p;
}

std::vector<CircuitProfile> random_suite(std::size_t count,
                                         std::uint64_t seed) {
  std::vector<CircuitProfile> suite;
  suite.reserve(count);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (std::size_t i = 0; i < count; ++i) {
    CircuitProfile p;
    p.name = str_format("r%02zu", i);
    // Per-circuit seed drawn from the suite stream: stable under `count`
    // prefix extension (circuit k is the same in a 10- and 64-deep suite).
    p.seed = rng.next() | 1;
    p.use_async = rng.chance(0.5);
    p.use_en = rng.chance(0.7);
    p.use_sync = rng.chance(0.3);
    p.control_signals = static_cast<std::size_t>(rng.range(1, 5));
    p.data_inputs = static_cast<std::size_t>(rng.range(4, 8));
    const std::size_t n_pipelines = static_cast<std::size_t>(rng.range(1, 2));
    for (std::size_t j = 0; j < n_pipelines; ++j) {
      CircuitProfile::Pipeline pipe;
      pipe.width = static_cast<std::size_t>(rng.range(3, 6));
      pipe.depth = static_cast<std::size_t>(rng.range(2, 5));
      pipe.registers = static_cast<std::size_t>(rng.range(1, 2));
      p.pipelines.push_back(pipe);
    }
    if (rng.chance(0.6)) {
      p.accumulators.push_back({static_cast<std::size_t>(rng.range(3, 6))});
    }
    if (rng.chance(0.5)) {
      CircuitProfile::ShiftGroup shift;
      shift.width = static_cast<std::size_t>(rng.range(2, 4));
      shift.length = static_cast<std::size_t>(rng.range(2, 5));
      p.shifts.push_back(shift);
    }
    p.counter_bits = static_cast<std::size_t>(rng.range(2, 4));
    suite.push_back(std::move(p));
  }
  return suite;
}

}  // namespace mcrt
