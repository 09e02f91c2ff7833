#include "verify/cut_depth.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <set>
#include <vector>

namespace mcrt {
namespace {

using Cut = std::vector<std::uint32_t>;  // sorted net indices

/// Most minimal cuts any one net may have.
constexpr std::size_t kMaxCuts = 2000;
/// Most cut unions plus dominance tests spent on one gate. Both caps are
/// checked as the work is done, so a gate past either costs bounded time.
constexpr std::size_t kMaxWorkPerGate = std::size_t{1} << 24;

/// Smaller cuts first, so every subset of a cut is visited before it.
struct SmallerFirst {
  bool operator()(const Cut& a, const Cut& b) const {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  }
};

}  // namespace

std::optional<std::uint32_t> exhaustive_cut_depth(const Netlist& subject,
                                                  std::uint32_t k) {
  const auto order = subject.combinational_order();
  if (!order) return std::nullopt;

  // cuts[n] holds every minimal k-feasible cut of net n plus the trivial
  // cut {n}; a source has only its trivial cut and keeps label 0.
  std::vector<std::vector<Cut>> cuts(subject.net_count());
  std::vector<std::uint32_t> label(subject.net_count(), 0);
  for (std::uint32_t n = 0; n < cuts.size(); ++n) cuts[n] = {Cut{n}};

  for (const NodeId id : *order) {
    const Node& node = subject.node(id);
    if (node.fanins.empty()) continue;  // constants are sources
    std::size_t work = 0;
    std::set<Cut, SmallerFirst> merged{Cut{}};
    for (const NetId fanin : node.fanins) {
      std::set<Cut, SmallerFirst> next;
      for (const Cut& partial : merged) {
        for (const Cut& cut : cuts[fanin.index()]) {
          if (++work > kMaxWorkPerGate) return std::nullopt;
          Cut joined;
          std::set_union(partial.begin(), partial.end(), cut.begin(),
                         cut.end(), std::back_inserter(joined));
          if (joined.size() <= k) next.insert(std::move(joined));
        }
      }
      if (next.empty()) return std::nullopt;
      merged = std::move(next);
    }
    // A cut containing another cut of the same net never gives a smaller
    // label, here or in any cut merged from it: keep the minimal ones.
    std::vector<Cut> minimal;
    for (const Cut& cut : merged) {
      work += minimal.size();
      if (work > kMaxWorkPerGate) return std::nullopt;
      const bool dominated =
          std::any_of(minimal.begin(), minimal.end(), [&](const Cut& small) {
            return std::includes(cut.begin(), cut.end(), small.begin(),
                                 small.end());
          });
      if (dominated) continue;
      if (minimal.size() == kMaxCuts) return std::nullopt;
      minimal.push_back(cut);
    }
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    for (const Cut& cut : minimal) {
      std::uint32_t deepest_leaf = 0;
      for (const std::uint32_t leaf : cut) {
        deepest_leaf = std::max(deepest_leaf, label[leaf]);
      }
      best = std::min(best, deepest_leaf + 1);
    }
    const std::uint32_t out = node.output.value();
    label[out] = best;
    cuts[out] = std::move(minimal);
    cuts[out].push_back(Cut{out});
  }

  std::uint32_t depth = 0;
  const auto root = [&](NetId net) {
    if (net.valid()) depth = std::max(depth, label[net.index()]);
  };
  for (const NodeId po : subject.outputs()) root(subject.node(po).fanins[0]);
  for (const Register& ff : subject.registers()) {
    for (const NetId pin : {ff.d, ff.clk, ff.en, ff.sync_ctrl, ff.async_ctrl}) {
      root(pin);
    }
  }
  return depth;
}

}  // namespace mcrt
