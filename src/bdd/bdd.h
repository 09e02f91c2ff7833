// Reduced Ordered Binary Decision Diagrams.
//
// A deliberately small ROBDD package sufficient for the two jobs the paper
// needs BDDs for (§3.1 register-class equivalence of control cones and
// §5.2 backward justification of reset values):
//   - hash-consed (var, low, high) nodes, so semantic equality is pointer
//     (index) equality;
//   - ITE with a computed table (all Boolean connectives derive from it);
//   - cofactor/restrict, existential quantification, composition;
//   - shortest-path cube extraction, which yields the justification
//     assignment with many don't-cares (§5.2: "we select as many don't
//     cares for the reset values as possible").
//
// No garbage collection: managers are scoped per analysis and dropped whole.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/cancel.h"

namespace mcrt {

/// Handle to a BDD node inside a BddManager. Index 0/1 are the constant
/// false/true terminals.
using BddRef = std::uint32_t;

class BddManager {
 public:
  BddManager();

  static constexpr BddRef kFalse = 0;
  static constexpr BddRef kTrue = 1;

  /// Returns the projection function of variable `var` (creating variables
  /// on demand; variable order is creation order).
  BddRef var(std::uint32_t var_index);
  /// Complement of the projection function.
  BddRef nvar(std::uint32_t var_index);

  BddRef ite(BddRef f, BddRef g, BddRef h);
  BddRef bdd_not(BddRef f) { return ite(f, kFalse, kTrue); }
  BddRef bdd_and(BddRef f, BddRef g) { return ite(f, g, kFalse); }
  BddRef bdd_or(BddRef f, BddRef g) { return ite(f, kTrue, g); }
  BddRef bdd_xor(BddRef f, BddRef g) { return ite(f, bdd_not(g), g); }
  BddRef bdd_xnor(BddRef f, BddRef g) { return ite(f, g, bdd_not(g)); }

  /// f with variable `var_index` fixed to `value`.
  BddRef restrict_var(BddRef f, std::uint32_t var_index, bool value);
  /// Existential quantification of one variable.
  BddRef exists(BddRef f, std::uint32_t var_index);
  /// f with variable `var_index` replaced by function g.
  BddRef compose(BddRef f, std::uint32_t var_index, BddRef g);

  [[nodiscard]] bool is_const(BddRef f) const { return f <= kTrue; }

  /// Evaluates f under a complete assignment (indexed by variable).
  [[nodiscard]] bool eval(BddRef f, const std::vector<bool>& assignment) const;

  /// One literal of a satisfying cube: variable index and phase.
  struct Literal {
    std::uint32_t var;
    bool value;
  };
  /// Finds a satisfying cube of f with the fewest literals among f's
  /// root-to-true paths (a cube of the variable order; an implicant that
  /// skips a tested variable can be shorter). Returns std::nullopt iff
  /// f == false.
  std::optional<std::vector<Literal>> shortest_cube(BddRef f);

  /// Number of satisfying assignments over `var_count` variables.
  [[nodiscard]] double sat_count(BddRef f, std::uint32_t var_count);

  /// Support: set of variable indices f depends on.
  [[nodiscard]] std::vector<std::uint32_t> support(BddRef f) const;

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::uint32_t variable_count() const noexcept {
    return var_count_;
  }

  /// Guard rails for potentially explosive analyses (ternary BMC, formal
  /// reachability): make_node throws ResourceLimitError once the manager
  /// holds more than `max_nodes` nodes (0 = unlimited), and ite() polls
  /// `token` periodically, throwing CancelledError on a stop request. The
  /// manager stays structurally valid after either throw — callers may
  /// catch and degrade, or unwind and drop the manager whole.
  void set_node_limit(std::size_t max_nodes) noexcept {
    node_limit_ = max_nodes;
  }
  void set_cancel(const CancelToken* token) noexcept { cancel_ = token; }

  /// Top variable of f (kNoVar for terminals).
  static constexpr std::uint32_t kNoVar = ~0u;
  [[nodiscard]] std::uint32_t top_var(BddRef f) const;
  [[nodiscard]] BddRef low(BddRef f) const { return nodes_[f].low; }
  [[nodiscard]] BddRef high(BddRef f) const { return nodes_[f].high; }

 private:
  struct Node {
    std::uint32_t var;
    BddRef low;
    BddRef high;
  };
  struct NodeKey {
    std::uint32_t var;
    BddRef low;
    BddRef high;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    std::size_t operator()(const NodeKey& k) const noexcept {
      std::uint64_t h = k.var;
      h = h * 0x9e3779b97f4a7c15ULL + k.low;
      h = h * 0x9e3779b97f4a7c15ULL + k.high;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  struct IteKey {
    BddRef f, g, h;
    bool operator==(const IteKey&) const = default;
  };
  struct IteKeyHash {
    std::size_t operator()(const IteKey& k) const noexcept {
      std::uint64_t h = k.f;
      h = h * 0x9e3779b97f4a7c15ULL + k.g;
      h = h * 0x9e3779b97f4a7c15ULL + k.h;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  BddRef make_node(std::uint32_t var, BddRef low, BddRef high);
  BddRef cofactor(BddRef f, std::uint32_t var, bool value) const;

  std::vector<Node> nodes_;
  std::unordered_map<NodeKey, BddRef, NodeKeyHash> unique_;
  std::unordered_map<IteKey, BddRef, IteKeyHash> ite_cache_;
  std::uint32_t var_count_ = 0;
  std::size_t node_limit_ = 0;          ///< 0 = unlimited
  const CancelToken* cancel_ = nullptr;
  std::uint32_t poll_tick_ = 0;         ///< ite() calls since last poll
};

}  // namespace mcrt
