#include "mcretime/relocate.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "base/strings.h"
#include "bdd/bdd.h"
#include "bdd/truth_table_bdd.h"
#include "mcretime/reset_state.h"

namespace mcrt {
namespace {

// A global-justification program: the BDD operations of one global
// justification as a flat word list over variable indices, in the order a
// run executes them (so it also fixes node creation and variable order):
//
//   R, then R root literals (var << 1 | value): var == value;
//   M, then M moves, then the pending move, each
//     table bits, arity, P, P pin words (pin << 32 | var), E, E vars:
//     every listed var == table(pins), unlisted pins tied to false.
//
// Before each of the M moves a run stops when the constraint is already
// false (unsatisfiable) or the manager holds more than kNodeBudget nodes.
constexpr std::size_t kNodeBudget = 500000;

JustificationMemo::GlobalAnswer run_global_program(
    const std::vector<std::uint64_t>& program) {
  BddManager bdd;
  BddRef constraint = BddManager::kTrue;
  std::size_t at = 0;
  const auto next = [&] { return program[at++]; };
  const auto var = [&](std::uint64_t v) {
    return bdd.var(static_cast<std::uint32_t>(v));
  };
  const auto require_equal = [&](BddRef a, BddRef b) {
    constraint = bdd.bdd_and(constraint, bdd.bdd_xnor(a, b));
  };
  const auto run_move = [&] {
    const std::uint64_t bits = next();
    const TruthTable f(static_cast<std::uint32_t>(next()), bits);
    std::vector<BddRef> pins(f.input_count(), BddManager::kFalse);
    for (std::uint64_t p = next(); p > 0; --p) {
      const std::uint64_t word = next();
      pins[word >> 32] = var(word & 0xffffffffu);
    }
    const BddRef out = table_bdd(bdd, f, pins);
    for (std::uint64_t e = next(); e > 0; --e) require_equal(var(next()), out);
  };
  for (std::uint64_t r = next(); r > 0; --r) {
    const std::uint64_t literal = next();
    require_equal(var(literal >> 1),
                  (literal & 1) != 0 ? BddManager::kTrue : BddManager::kFalse);
  }
  constexpr const char* kUnsatisfiable = "global justification unsatisfiable";
  for (std::uint64_t m = next(); m > 0; --m) {
    if (constraint == BddManager::kFalse) return {kUnsatisfiable, {}};
    if (bdd.node_count() > kNodeBudget) {
      return {"global justification BDD exceeds node budget", {}};
    }
    run_move();
  }
  run_move();  // the pending move
  auto cube = bdd.shortest_cube(constraint);
  if (!cube) return {kUnsatisfiable, {}};
  return {{}, std::move(*cube)};
}

enum class Plane { kSync, kAsync };

ResetVal plane_value(const McReg& reg, Plane plane) {
  return plane == Plane::kSync ? reg.sync_val : reg.async_val;
}
void set_plane_value(McReg& reg, Plane plane, ResetVal value) {
  (plane == Plane::kSync ? reg.sync_val : reg.async_val) = value;
}

class Relocator {
 public:
  Relocator(McGraph& graph, const Netlist& netlist,
            const std::vector<std::int64_t>& target,
            std::size_t global_var_budget, JustificationMemo* memo)
      : g_(graph),
        netlist_(netlist),
        target_(target),
        var_budget_(global_var_budget),
        memo_(memo) {}

  RelocateResult run() {
    init();
    const std::size_t n = g_.vertex_count();
    moved_.assign(n, 0);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t v = 1; v < n; ++v) {
        const VertexId vid{static_cast<std::uint32_t>(v)};
        while (moved_[v] < target_[v] && g_.backward_step_class(vid)) {
          if (!do_backward(vid)) return result_;  // justification failure
          ++moved_[v];
          progress = true;
        }
        while (moved_[v] > target_[v] && g_.forward_step_class(vid)) {
          do_forward(vid);
          --moved_[v];
          progress = true;
        }
      }
    }
    for (std::size_t v = 1; v < n; ++v) {
      if (moved_[v] != target_[v]) {
        result_.success = false;
        result_.failed_vertex = VertexId{static_cast<std::uint32_t>(v)};
        result_.achieved = moved_[v];
        result_.failed_backward = moved_[v] < target_[v];
        result_.failure_reason = "scheduling stuck (incompatible layers)";
        return result_;
      }
    }
    result_.success = true;
    return result_;
  }

 private:
  struct MoveRecord {
    VertexId vertex;
    bool backward = true;
    std::vector<std::uint32_t> consumed;       ///< uids
    std::vector<std::uint32_t> consumed_pin;   ///< forward: pin per consumed
    std::vector<std::uint32_t> created;        ///< uids
    std::vector<std::uint32_t> created_pin;    ///< backward: pin per created
  };

  void init() {
    // Record original registers (hard value constraints) and live edges.
    const Digraph& dg = g_.digraph();
    for (std::size_t e = 0; e < dg.edge_count(); ++e) {
      const EdgeId eid{static_cast<std::uint32_t>(e)};
      for (const McReg& reg : g_.regs(eid)) {
        original_sync_[reg.uid] = reg.sync_val;
        original_async_[reg.uid] = reg.async_val;
        reg_edge_[reg.uid] = eid;
      }
    }
  }

  /// Truth table of a movable vertex (gate or separator pass-through).
  TruthTable function_of(VertexId v) const {
    if (g_.kind(v) == McVertexKind::kSeparator) return TruthTable::buffer();
    return netlist_.node(g_.origin_node(v)).function;
  }

  /// Number of logical input pins of v.
  std::uint32_t pin_count(VertexId v) const {
    return function_of(v).input_count();
  }

  bool do_backward(VertexId v) {
    const Digraph& dg = g_.digraph();
    const TruthTable f = function_of(v);
    // Snapshot consumed registers (front of each fanout edge).
    std::vector<McReg> consumed;
    for (const EdgeId e : dg.out_edges(v)) {
      consumed.push_back(g_.regs(e).front());
    }
    // Per-plane target values and justified pin assignments.
    std::vector<ResetVal> pins_sync;
    std::vector<ResetVal> pins_async;
    bool need_global_sync = false;
    bool need_global_async = false;
    auto plan = [&](Plane plane, std::vector<ResetVal>& pins) -> bool {
      std::vector<ResetVal> values;
      for (const McReg& reg : consumed) values.push_back(plane_value(reg, plane));
      const auto merged = merge_reset_values(values);
      if (!merged) return false;  // 0/1 clash across the layer
      if (*merged == ResetVal::kDontCare) {
        pins.assign(pin_count(v), ResetVal::kDontCare);
        return true;
      }
      const bool target = *merged == ResetVal::kOne;
      auto justified = memo_ != nullptr ? memo_->local(f, target)
                                        : justify_through(f, target);
      if (!justified) return false;
      pins = std::move(*justified);
      return true;
    };
    need_global_sync = !plan(Plane::kSync, pins_sync);
    need_global_async = !plan(Plane::kAsync, pins_async);
    if (!need_global_sync && !need_global_async) {
      ++result_.stats.local_justifications;
    }
    if (need_global_sync) {
      if (!global_justify(v, Plane::kSync, consumed, pins_sync)) return false;
    }
    if (need_global_async) {
      if (!global_justify(v, Plane::kAsync, consumed, pins_async)) {
        return false;
      }
    }

    // Execute the step and install values on the created registers.
    MoveRecord record;
    record.vertex = v;
    record.backward = true;
    for (const McReg& reg : consumed) {
      record.consumed.push_back(reg.uid);
      reg_edge_.erase(reg.uid);
    }
    const auto created = g_.apply_backward_step(v);
    std::size_t i = 0;
    for (const EdgeId e : dg.in_edges(v)) {
      McReg& reg = g_.regs_mutable(e).back();
      const std::uint32_t pin = g_.sink_pin(e);
      reg.sync_val = pins_sync[pin];
      reg.async_val = pins_async[pin];
      record.created.push_back(created[i]);
      record.created_pin.push_back(pin);
      reg_edge_[created[i]] = e;
      ++i;
    }
    created_by_move_index(record);
    ++result_.stats.backward_steps;
    return true;
  }

  void do_forward(VertexId v) {
    const Digraph& dg = g_.digraph();
    const TruthTable f = function_of(v);
    MoveRecord record;
    record.vertex = v;
    record.backward = false;
    std::vector<ResetVal> pins_sync(pin_count(v), ResetVal::kDontCare);
    std::vector<ResetVal> pins_async(pin_count(v), ResetVal::kDontCare);
    for (const EdgeId e : dg.in_edges(v)) {
      const McReg& reg = g_.regs(e).back();
      const std::uint32_t pin = g_.sink_pin(e);
      pins_sync[pin] = reg.sync_val;
      pins_async[pin] = reg.async_val;
      record.consumed.push_back(reg.uid);
      record.consumed_pin.push_back(pin);
      reg_edge_.erase(reg.uid);
    }
    const ResetVal s_out = imply_through(f, pins_sync);
    const ResetVal a_out = imply_through(f, pins_async);
    const auto created = g_.apply_forward_step(v);
    std::size_t i = 0;
    for (const EdgeId e : dg.out_edges(v)) {
      McReg& reg = g_.regs_mutable(e).front();
      reg.sync_val = s_out;
      reg.async_val = a_out;
      record.created.push_back(created[i]);
      reg_edge_[created[i]] = e;
      ++i;
    }
    created_by_move_index(record);
    ++result_.stats.forward_steps;
  }

  void created_by_move_index(MoveRecord record) {
    const std::size_t index = records_.size();
    for (const std::uint32_t uid : record.created) created_by_[uid] = index;
    for (const std::uint32_t uid : record.consumed) consumed_by_[uid] = index;
    records_.push_back(std::move(record));
  }

  /// Re-solves the reset plane jointly over the provenance closure of the
  /// pending backward move at v. On success, fills `pins` for the pending
  /// move and rewrites the plane values of all live closure registers.
  bool global_justify(VertexId v, Plane plane,
                      const std::vector<McReg>& consumed,
                      std::vector<ResetVal>& pins) {
    ++result_.stats.global_justifications;
    // --- provenance closure ------------------------------------------------
    std::unordered_set<std::uint32_t> closure;
    std::unordered_set<std::size_t> moves;
    std::vector<std::uint32_t> queue;
    for (const McReg& reg : consumed) {
      closure.insert(reg.uid);
      queue.push_back(reg.uid);
    }
    // Expand through *both* link directions: the move that created a
    // register (its value constrains/justifies it) and the move that later
    // consumed it (whose outputs were implied from it). Leaving either out
    // would let a revision invalidate an already-committed implication.
    auto expand_move = [&](std::size_t index) {
      if (!moves.insert(index).second) return;
      const MoveRecord& m = records_[index];
      for (const std::uint32_t u : m.consumed) {
        if (closure.insert(u).second) queue.push_back(u);
      }
      for (const std::uint32_t u : m.created) {
        if (closure.insert(u).second) queue.push_back(u);
      }
    };
    while (!queue.empty()) {
      const std::uint32_t uid = queue.back();
      queue.pop_back();
      if (const auto it = created_by_.find(uid); it != created_by_.end()) {
        expand_move(it->second);
      }
      if (const auto it = consumed_by_.find(uid); it != consumed_by_.end()) {
        expand_move(it->second);
      }
    }
    if (closure.size() + pin_count(v) > var_budget_) {
      return fail(v, "global justification closure exceeds variable budget");
    }

    // --- variables ----------------------------------------------------------
    // Variable order follows move chronology (roots and early products
    // first): the constraint conjunction is chain-shaped along the move
    // history, and a topological order keeps the intermediate BDDs small.
    // It also makes the result deterministic.
    std::vector<std::size_t> ordered_moves(moves.begin(), moves.end());
    std::sort(ordered_moves.begin(), ordered_moves.end());
    std::unordered_map<std::uint32_t, std::uint32_t> var_of;  // uid -> var
    std::uint32_t next_var = 0;
    auto assign_var = [&](std::uint32_t uid) {
      if (!var_of.count(uid)) var_of[uid] = next_var++;
    };
    for (const std::size_t mi : ordered_moves) {
      for (const std::uint32_t uid : records_[mi].consumed) assign_var(uid);
      for (const std::uint32_t uid : records_[mi].created) assign_var(uid);
    }
    for (const McReg& reg : consumed) assign_var(reg.uid);
    std::vector<std::uint32_t> pending_vars;
    for (std::uint32_t p = 0; p < pin_count(v); ++p) {
      pending_vars.push_back(next_var++);
    }

    // --- constraints, as a program (see run_global_program) ----------------
    using PinVars = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
    std::vector<std::uint64_t> program;
    const auto emit_move = [&](const TruthTable& f, const PinVars& pin_vars,
                               const std::vector<std::uint32_t>& equated) {
      program.push_back(f.bits());
      program.push_back(f.input_count());
      program.push_back(pin_vars.size());
      for (const auto& [pin, var] : pin_vars) {
        program.push_back(std::uint64_t{pin} << 32 | var);
      }
      program.push_back(equated.size());
      for (const std::uint32_t uid : equated) program.push_back(var_of.at(uid));
    };
    // Roots: original registers carry their input-circuit values.
    const auto& originals =
        plane == Plane::kSync ? original_sync_ : original_async_;
    program.push_back(0);
    for (const std::uint32_t uid : closure) {
      if (created_by_.count(uid)) continue;
      const ResetVal value = originals.at(uid);
      if (value == ResetVal::kDontCare) continue;  // free
      program.push_back(std::uint64_t{var_of.at(uid)} << 1 |
                        (value == ResetVal::kOne ? 1u : 0u));
    }
    program[0] = program.size() - 1;
    // Recorded moves inside the closure, in chronological order: a backward
    // move's created registers feed the gate and its consumed ones equal
    // the output; a forward move the other way round.
    program.push_back(ordered_moves.size());
    PinVars pin_vars;
    for (const std::size_t mi : ordered_moves) {
      const MoveRecord& m = records_[mi];
      const auto& inputs = m.backward ? m.created : m.consumed;
      const auto& pins = m.backward ? m.created_pin : m.consumed_pin;
      pin_vars.clear();
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        pin_vars.emplace_back(pins[i], var_of.at(inputs[i]));
      }
      emit_move(function_of(m.vertex), pin_vars,
                m.backward ? m.consumed : m.created);
    }
    // The pending move.
    pin_vars.clear();
    for (std::uint32_t p = 0; p < pin_count(v); ++p) {
      pin_vars.emplace_back(p, pending_vars[p]);
    }
    std::vector<std::uint32_t> consumed_uids;
    for (const McReg& reg : consumed) consumed_uids.push_back(reg.uid);
    emit_move(function_of(v), pin_vars, consumed_uids);

    const JustificationMemo::GlobalAnswer answer =
        memo_ != nullptr ? memo_->global(std::move(program))
                         : run_global_program(program);
    if (!answer.failure.empty()) return fail(v, answer.failure);
    // Assignment: default '-'; literals in the cube get concrete values.
    std::unordered_map<std::uint32_t, ResetVal> assignment;  // var -> value
    for (const auto& lit : answer.cube) {
      assignment[lit.var] =
          lit.value ? ResetVal::kOne : ResetVal::kZero;
    }
    auto value_of_var = [&](std::uint32_t var) {
      const auto it = assignment.find(var);
      return it == assignment.end() ? ResetVal::kDontCare : it->second;
    };
    // Rewrite live closure registers. Products take the solver's choice;
    // original registers with a concrete value are pinned by their root
    // constraint anyway, and originals with '-' adopt the solver's choice
    // too (the system may rely on it; refining a don't-care is sound).
    for (const std::uint32_t uid : closure) {
      const auto live = reg_edge_.find(uid);
      if (live == reg_edge_.end()) continue;  // consumed long ago
      const bool is_product = created_by_.count(uid) != 0;
      const bool free_original =
          !is_product && originals.at(uid) == ResetVal::kDontCare;
      if (!is_product && !free_original) continue;
      auto& regs = g_.regs_mutable(live->second);
      for (McReg& reg : regs) {
        if (reg.uid == uid) {
          set_plane_value(reg, plane, value_of_var(var_of.at(uid)));
          break;
        }
      }
    }
    // Pending pins.
    pins.assign(pin_count(v), ResetVal::kDontCare);
    for (std::uint32_t p = 0; p < pin_count(v); ++p) {
      pins[p] = value_of_var(pending_vars[p]);
    }
    return true;
  }

  bool fail(VertexId v, std::string reason) {
    result_.success = false;
    result_.failed_vertex = v;
    result_.achieved = moved_[v.index()];
    result_.failed_backward = true;
    result_.failure_reason = std::move(reason);
    return false;
  }

  McGraph& g_;
  const Netlist& netlist_;
  const std::vector<std::int64_t>& target_;
  std::size_t var_budget_;
  JustificationMemo* memo_;  ///< null: solve every justification afresh
  std::vector<std::int64_t> moved_;
  std::vector<MoveRecord> records_;
  std::unordered_map<std::uint32_t, std::size_t> created_by_;
  std::unordered_map<std::uint32_t, std::size_t> consumed_by_;
  std::unordered_map<std::uint32_t, ResetVal> original_sync_;
  std::unordered_map<std::uint32_t, ResetVal> original_async_;
  std::unordered_map<std::uint32_t, EdgeId> reg_edge_;
  RelocateResult result_;
};

}  // namespace

const std::optional<std::vector<ResetVal>>& JustificationMemo::local(
    const TruthTable& f, bool target) {
  const auto key = std::make_tuple(f.input_count(), f.bits(), target);
  if (const auto it = local_.find(key); it != local_.end()) {
    return hit(it->second);
  }
  return local_.emplace(key, Entry<std::optional<std::vector<ResetVal>>>{
                                 justify_through(f, target), relocation_})
      .first->second.answer;
}

const JustificationMemo::GlobalAnswer& JustificationMemo::global(
    std::vector<std::uint64_t> program) {
  if (const auto it = global_.find(program); it != global_.end()) {
    return hit(it->second);
  }
  GlobalAnswer answer = run_global_program(program);
  return global_
      .emplace(std::move(program), Entry<GlobalAnswer>{std::move(answer),
                                                       relocation_})
      .first->second.answer;
}

RelocateResult relocate_registers(McGraph& graph, const Netlist& netlist,
                                  const std::vector<std::int64_t>& r,
                                  std::size_t global_var_budget,
                                  JustificationMemo* memo) {
  if (memo != nullptr) memo->begin_relocation();
  Relocator relocator(graph, netlist, r, global_var_budget, memo);
  return relocator.run();
}

}  // namespace mcrt
