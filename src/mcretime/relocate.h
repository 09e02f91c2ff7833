// Register relocation: implementing a retiming by valid mc-steps (§5.2).
//
// Given legal retiming labels, registers are moved one layer at a time by
// a worklist scheduler (a vertex moves only toward its target, and only
// when the step is a valid mc-step). Reset values travel with the moves:
//
//  - forward steps imply new values through the gate (3-valued);
//  - backward steps justify values one gate at a time with BDDs,
//    maximizing don't-cares (local justification);
//  - on a conflict (incompatible values meeting at a layer, or an
//    unjustifiable target), a *global justification* re-solves the values
//    of every register entangled with the conflict - the provenance
//    closure over recorded moves, traced back to original registers whose
//    values are hard constraints - as one BDD problem;
//  - if even that fails (or the closure exceeds the variable budget), the
//    relocation aborts and reports the offending vertex so the driver can
//    add a retiming bound and recompute (paper: "we set an upper retiming
//    bound on the vertex where the conflict occurred").
//
// A retry replays nearly the same moves and meets the same conflicts, so
// the driver passes one JustificationMemo to every relocation of a retiming
// (implement_retiming() in mc_retime.h). A local answer depends only on the
// gate function and the target value; a global one only on the flat
// program of BDD operations the conflict asks for, which is also the memo's
// key. Both are answered once and replayed exactly: every graph, value and
// RelocateResult is the one a memo-less relocation gives.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "bdd/bdd.h"
#include "mcretime/mcgraph.h"
#include "netlist/netlist.h"

namespace mcrt {

struct RelocateStats {
  std::size_t backward_steps = 0;
  std::size_t forward_steps = 0;
  /// Backward justifications answered locally (single gate).
  std::size_t local_justifications = 0;
  /// Conflicts that required a global justification.
  std::size_t global_justifications = 0;
};

struct RelocateResult {
  bool success = false;
  RelocateStats stats;
  /// On failure: the vertex whose backward (or forward) move could not be
  /// justified / scheduled, and the move count it did achieve - the driver
  /// turns this into a tightened bound and recomputes the retiming.
  VertexId failed_vertex;
  std::int64_t achieved = 0;
  bool failed_backward = true;
  std::string failure_reason;
};

/// Justification answers shared by the relocations of one retiming (one
/// per implement_retiming() call; no global state). Answers are pure
/// functions of their keys, so a hit returns exactly what recomputing
/// would.
class JustificationMemo {
 public:
  /// A global justification's outcome: the shortest satisfying cube over
  /// the program's variables, or why there is none.
  struct GlobalAnswer {
    std::string failure;  ///< empty when solved
    std::vector<BddManager::Literal> cube;
  };

  /// Starts a relocation: hits on answers stored by earlier relocations
  /// count as reuses from here on.
  void begin_relocation() noexcept { ++relocation_; }
  /// justify_through(f, target) (reset_state.h), computed once per
  /// function and target.
  const std::optional<std::vector<ResetVal>>& local(const TruthTable& f,
                                                    bool target);
  /// The outcome of a global-justification program (its encoding is
  /// private to relocate.cpp), run once per distinct program.
  const GlobalAnswer& global(std::vector<std::uint64_t> program);
  /// Local plus global hits on answers an earlier relocation stored: 0 while
  /// the first relocation runs.
  [[nodiscard]] std::size_t reuses() const noexcept { return reuses_; }
  /// Distinct problems answered so far, local plus global.
  [[nodiscard]] std::size_t size() const noexcept {
    return local_.size() + global_.size();
  }

 private:
  template <typename Answer>
  struct Entry {
    Answer answer;
    std::size_t relocation;  ///< the relocation that stored it
  };
  template <typename Answer>
  const Answer& hit(const Entry<Answer>& entry) {
    if (entry.relocation < relocation_) ++reuses_;
    return entry.answer;
  }

  std::map<std::tuple<std::uint32_t, std::uint64_t, bool>,
           Entry<std::optional<std::vector<ResetVal>>>>
      local_;
  std::map<std::vector<std::uint64_t>, Entry<GlobalAnswer>> global_;
  std::size_t relocation_ = 0;
  std::size_t reuses_ = 0;
};

/// Executes retiming `r` (indexed by vertex, r[host]=0) on `graph`,
/// mutating its register sequences and reset values. `netlist` supplies the
/// gate functions (graph vertices reference netlist nodes). `memo`, when
/// given, answers justifications earlier relocations already solved; the
/// result is the same with or without it.
RelocateResult relocate_registers(McGraph& graph, const Netlist& netlist,
                                  const std::vector<std::int64_t>& r,
                                  std::size_t global_var_budget = 96,
                                  JustificationMemo* memo = nullptr);

}  // namespace mcrt
