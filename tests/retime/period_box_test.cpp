// The period box (feas.h): the greatest and least labelings at phi, from
// FEAS started at an upper bound and from FEAS on the transposed view.
// Checked against an exhaustive enumeration of every labeling inside the
// class bounds on tiny graphs, and through its one consumer, the period
// constraints min-area solves: the same optimal area as the unpruned
// system, and the pairs of sources with an unbounded extreme kept. The
// same enumeration checks feas_check()'s labels, the least solution >= 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "../common/wd_reference.h"
#include "base/rng.h"
#include "graph/difference_constraints.h"
#include "retime/feas.h"
#include "retime/minarea.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"

namespace mcrt {
namespace {

constexpr std::int64_t kNoBound = RetimeGraph::kNoBound;

enum class Bounds { kNone, kAdmitZero, kAny };

/// A random legal graph on `vertices` gates around a host loop, with
/// zero-weight forward edges and registered back edges; registers on both
/// host edges leave room to move. With bounds, every gate gets a finite
/// class range: one containing 0, or any (some exclude 0, as relocation
/// retries make them).
RetimeGraph random_graph(std::uint64_t seed, std::size_t vertices,
                         Bounds bounds) {
  Rng rng(seed);
  RetimeGraph g;
  std::vector<VertexId> vs;
  for (std::size_t i = 0; i < vertices; ++i) {
    vs.push_back(g.add_vertex(1 + static_cast<std::int64_t>(rng.below(5))));
  }
  g.add_edge(g.host(), vs[0], 1 + rng.below(2));
  for (std::size_t i = 0; i + 1 < vertices; ++i) {
    g.add_edge(vs[i], vs[i + 1], rng.below(3));
  }
  for (std::size_t i = 0; i < vertices; ++i) {
    const std::size_t a = rng.below(vertices);
    const std::size_t b = rng.below(vertices);
    if (a < b) {
      g.add_edge(vs[a], vs[b], rng.below(2));
    } else if (a > b) {
      g.add_edge(vs[a], vs[b], 1 + rng.below(2));
    }
  }
  g.add_edge(vs[vertices - 1], g.host(), 1 + rng.below(2));
  for (const VertexId v : vs) {
    if (bounds == Bounds::kNone) break;
    const auto lower = -static_cast<std::int64_t>(rng.below(3));
    const auto upper = bounds == Bounds::kAny
                           ? lower + static_cast<std::int64_t>(rng.below(4))
                           : static_cast<std::int64_t>(rng.below(3));
    g.set_bounds(v, lower, upper);
  }
  return g;
}

/// Calls `visit` with every labeling in the class bounds (host fixed at 0)
/// that is legal and meets phi.
template <typename Visit>
void for_each_feasible(const RetimeGraph& g, std::int64_t phi,
                       Visit visit) {
  const std::size_t n = g.vertex_count();
  std::vector<std::int64_t> r(n, 0);
  for (std::size_t v = 1; v < n; ++v) {
    r[v] = g.lower_bound(VertexId{static_cast<std::uint32_t>(v)});
  }
  while (true) {
    bool meets = g.check_legal(r).empty();
    if (meets) {
      try {
        meets = g.period(r) <= phi;
      } catch (const std::logic_error&) {
        meets = false;
      }
    }
    if (meets) visit(r);
    std::size_t v = 1;
    for (; v < n; ++v) {
      const VertexId id{static_cast<std::uint32_t>(v)};
      if (++r[v] <= g.upper_bound(id)) break;
      r[v] = g.lower_bound(id);
    }
    if (v == n) return;
  }
}

/// Componentwise max and min over every labeling in the class bounds
/// (host fixed at 0) that is legal and meets phi; nullopt if there is none.
std::optional<PeriodBox> enumerate_box(const RetimeGraph& g,
                                       std::int64_t phi) {
  std::optional<PeriodBox> box;
  for_each_feasible(g, phi, [&](const std::vector<std::int64_t>& r) {
    if (!box) {
      box = PeriodBox{r, r};
      return;
    }
    for (std::size_t v = 0; v < r.size(); ++v) {
      box->lo[v] = std::min(box->lo[v], r[v]);
      box->hi[v] = std::max(box->hi[v], r[v]);
    }
  });
  return box;
}

/// The least legal labeling >= 0 that meets phi, normalized to r(host) =
/// 0; nullopt if there is none. Feasibility is invariant under uniform
/// shifts, so the labelings >= 0 are the enumerated ones (host at 0)
/// shifted up by at least minus their smallest label, and the least of
/// them is the componentwise minimum over the enumerated labelings shifted
/// by exactly that much.
std::optional<std::vector<std::int64_t>> enumerate_least(
    const RetimeGraph& g, std::int64_t phi) {
  std::optional<std::vector<std::int64_t>> least;
  for_each_feasible(g, phi, [&](const std::vector<std::int64_t>& r) {
    const std::int64_t shift = -*std::min_element(r.begin(), r.end());
    if (!least) least.emplace(r.size(), kNoBound);
    for (std::size_t v = 0; v < r.size(); ++v) {
      (*least)[v] = std::min((*least)[v], r[v] + shift);
    }
  });
  if (least) {
    const std::int64_t base = (*least)[g.host().index()];
    for (auto& label : *least) label -= base;
  }
  return least;
}

class PeriodBoxProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeriodBoxProperty, EqualsExhaustiveExtremes) {
  const std::uint64_t seed = GetParam();
  for (const Bounds bounds : {Bounds::kAdmitZero, Bounds::kAny}) {
    const RetimeGraph g = random_graph(seed, 5, bounds);
    for (const std::int64_t phi : testing::wd_path_delays(g)) {
      const std::string where = "seed " + std::to_string(seed) + " phi " +
                                std::to_string(phi) +
                                (bounds == Bounds::kAny ? " any" : " zero");
      const std::optional<PeriodBox> box = period_box(g, phi);
      const std::optional<PeriodBox> reference = enumerate_box(g, phi);
      ASSERT_EQ(box.has_value(), reference.has_value()) << where;
      if (!box) continue;
      EXPECT_EQ(box->hi, reference->hi) << where;
      EXPECT_EQ(box->lo, reference->lo) << where;
    }
  }
}

TEST_P(PeriodBoxProperty, MinAreaMatchesUnprunedConstraints) {
  const std::uint64_t seed = GetParam();
  for (const Bounds bounds : {Bounds::kNone, Bounds::kAdmitZero}) {
    const RetimeGraph g = random_graph(seed, 8, bounds);
    const RetimeSolution fastest = minperiod_retime(g);
    ASSERT_TRUE(fastest.feasible);
    for (const std::int64_t phi : {fastest.period, g.period()}) {
      const std::string where =
          "seed " + std::to_string(seed) + " phi " + std::to_string(phi) +
          (bounds == Bounds::kNone ? " free" : " bounded");
      std::vector<DifferenceConstraint> unpruned;
      generate_period_constraints_unpruned(g, phi, unpruned);
      const MinAreaResult pruned = minarea_retime(g, phi);
      const MinAreaResult reference = minarea_retime(g, phi, &unpruned);
      ASSERT_TRUE(pruned.feasible) << where;
      ASSERT_TRUE(reference.feasible) << where;
      EXPECT_EQ(pruned.area, reference.area) << where;
      EXPECT_LE(g.period(pruned.r), phi) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, PeriodBoxProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

class FeasLeastProperty : public ::testing::TestWithParam<std::uint64_t> {};

// feas_check() and its W/D reference bounded_feasible() both return the
// least solution: at every candidate period, the same verdict as the
// enumeration and the same labels.
TEST_P(FeasLeastProperty, EqualsExhaustiveLeastSolution) {
  const std::uint64_t seed = GetParam();
  for (const Bounds bounds : {Bounds::kAdmitZero, Bounds::kAny}) {
    const RetimeGraph g = random_graph(seed, 5, bounds);
    for (const std::int64_t phi : testing::wd_path_delays(g)) {
      const std::string where = "seed " + std::to_string(seed) + " phi " +
                                std::to_string(phi) +
                                (bounds == Bounds::kAny ? " any" : " zero");
      const auto feas = feas_check(g, phi);
      const auto reference = enumerate_least(g, phi);
      ASSERT_EQ(feas.has_value(), reference.has_value()) << where;
      EXPECT_EQ(bounded_feasible(g, phi), feas) << where;
      if (feas) {
        EXPECT_EQ(*feas, *reference) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, FeasLeastProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(PeriodBoxTest, UnboundedExtremesKeepTheirPairs) {
  // host -> a -> b -> host with a register on each edge, so a and b may
  // each take labels -1..1 as long as a register stays between them. x
  // feeds a and is fed by nothing, so nothing bounds it below; y hangs off
  // b and drives z, which drives nothing, so nothing bounds them above.
  // Every gate is slower than half a period of 5: each edge between gates
  // needs a register.
  RetimeGraph g;
  const VertexId a = g.add_vertex(5);
  const VertexId b = g.add_vertex(5);
  const VertexId x = g.add_vertex(5);
  const VertexId y = g.add_vertex(5);
  const VertexId z = g.add_vertex(5);
  g.add_edge(g.host(), a, 1);
  g.add_edge(a, b, 1);
  g.add_edge(b, g.host(), 1);
  g.add_edge(x, a, 0);
  g.add_edge(b, y, 0);
  g.add_edge(y, z, 0);
  const std::int64_t phi = 5;

  const std::optional<PeriodBox> box = period_box(g, phi);
  ASSERT_TRUE(box);
  for (const VertexId v : {a, b}) {
    EXPECT_EQ(box->lo[v.index()], -1);
    EXPECT_EQ(box->hi[v.index()], 1);
  }
  EXPECT_EQ(box->lo[x.index()], -kNoBound);
  EXPECT_EQ(box->hi[x.index()], 0);
  EXPECT_EQ(box->lo[y.index()], 0);
  EXPECT_EQ(box->hi[y.index()], kNoBound);
  EXPECT_EQ(box->lo[z.index()], 1);
  EXPECT_EQ(box->hi[z.index()], kNoBound);

  std::vector<DifferenceConstraint> emitted;
  generate_period_constraints(g, phi, emitted);
  const auto has = [&](VertexId u, VertexId v, std::int64_t bound) {
    return std::any_of(emitted.begin(), emitted.end(), [&](const auto& c) {
      return c.u == u.value() && c.v == v.value() && c.bound == bound;
    });
  };
  EXPECT_TRUE(has(x, a, -1)) << "source unbounded below";
  EXPECT_TRUE(has(b, y, -1)) << "target unbounded above";
  EXPECT_TRUE(has(y, z, -1)) << "source unbounded above";

  // Every full constraint is implied: adding its negation makes the
  // pruned system infeasible.
  std::vector<DifferenceConstraint> pruned;
  generate_circuit_constraints(g, pruned);
  pruned.insert(pruned.end(), emitted.begin(), emitted.end());
  std::vector<DifferenceConstraint> full;
  generate_period_constraints_unpruned(g, phi, full);
  ASSERT_FALSE(full.empty());
  for (const auto& c : full) {
    std::vector<DifferenceConstraint> negated = pruned;
    negated.push_back({c.v, c.u, -c.bound - 1});
    EXPECT_FALSE(solve_difference_constraints(g.vertex_count(), negated))
        << "(" << c.u << "," << c.v << ") <= " << c.bound
        << " is not implied";
  }
}

TEST(PeriodBoxTest, ClassBoundsBoundTheirNeighbours) {
  // p and t hang off nothing but carry class bounds [-1, 1]. q reaches
  // only p and s is reached only from t, each across one register, and no
  // path is slower than phi = 2: the bounds alone give hi(q) = 2 and
  // lo(s) = -2, while nothing bounds q below or s above.
  RetimeGraph g;
  const VertexId a = g.add_vertex(1);
  g.add_edge(g.host(), a, 0);
  g.add_edge(a, g.host(), 0);
  const VertexId p = g.add_vertex(1);
  const VertexId q = g.add_vertex(1);
  const VertexId t = g.add_vertex(1);
  const VertexId s = g.add_vertex(1);
  g.add_edge(q, p, 1);
  g.add_edge(t, s, 1);
  g.set_bounds(p, -1, 1);
  g.set_bounds(t, -1, 1);
  // y is bounded below far above every other start: FEAS lowers the host
  // for it, and the normalization must undo that.
  const VertexId y = g.add_vertex(1);
  g.set_bounds(y, 100, RetimeGraph::kNoBound);

  const std::optional<PeriodBox> box = period_box(g, 2);
  ASSERT_TRUE(box);
  EXPECT_EQ(box->hi[q.index()], 2);
  EXPECT_EQ(box->lo[q.index()], -kNoBound);
  EXPECT_EQ(box->lo[s.index()], -2);
  EXPECT_EQ(box->hi[s.index()], kNoBound);
  for (const VertexId v : {p, t}) {
    EXPECT_EQ(box->lo[v.index()], -1);
    EXPECT_EQ(box->hi[v.index()], 1);
  }
  EXPECT_EQ(box->lo[y.index()], 100);
  EXPECT_EQ(box->hi[y.index()], kNoBound);
  EXPECT_EQ(box->lo[a.index()], 0);
  EXPECT_EQ(box->hi[a.index()], 0);
}

TEST(PeriodBoxTest, InfeasiblePeriodEmitsTheMarker) {
  RetimeGraph g;
  const VertexId a = g.add_vertex(5);
  const VertexId b = g.add_vertex(5);
  g.add_edge(g.host(), a, 0);
  g.add_edge(a, b, 0);
  g.add_edge(b, g.host(), 0);
  EXPECT_FALSE(period_box(g, 9));
  std::vector<DifferenceConstraint> emitted;
  generate_period_constraints(g, 9, emitted);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].u, emitted[0].v);
  EXPECT_LT(emitted[0].bound, 0);
  EXPECT_FALSE(minarea_retime(g, 9).feasible);
}

}  // namespace
}  // namespace mcrt
