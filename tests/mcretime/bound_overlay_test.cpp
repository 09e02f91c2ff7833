// The bound overlay step 6 builds from relocation failures (§5.2): bounds
// only tighten, a failure that cannot tighten them is reported with the
// driver's "could not be bounded away" error, and applying the overlay
// intersects it with the graph's own bounds.
#include <gtest/gtest.h>

#include "mcretime/lower.h"
#include "mcretime/mc_retime.h"
#include "netlist/netlist.h"
#include "transform/sweep.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

RelocateResult failure(std::uint32_t v, std::int64_t achieved,
                       bool backward) {
  RelocateResult r;
  r.failed_vertex = VertexId{v};
  r.achieved = achieved;
  r.failed_backward = backward;
  r.failure_reason = "why";
  return r;
}

/// Host plus three unbounded vertices.
RetimeGraph three_vertices() {
  RetimeGraph g;
  for (int i = 0; i < 3; ++i) g.add_vertex(1);
  return g;
}

TEST(BoundOverlayTest, TightenedBoundNeverLoosens) {
  BoundOverlay overlay;
  EXPECT_EQ(overlay.tighten(failure(1, 2, /*backward=*/true)), "");
  EXPECT_EQ(overlay.tighten(failure(2, -2, /*backward=*/false)), "");
  // Equal or looser bounds are no progress: error, overlay unchanged.
  EXPECT_EQ(overlay.tighten(failure(1, 3, true)),
            "justification failure could not be bounded away: why");
  EXPECT_EQ(overlay.tighten(failure(1, 2, true)),
            "justification failure could not be bounded away: why");
  EXPECT_EQ(overlay.tighten(failure(2, -3, false)),
            "scheduling failure could not be bounded away: why");
  EXPECT_EQ(overlay.tighten(failure(2, -2, false)),
            "scheduling failure could not be bounded away: why");
  RetimeGraph g = three_vertices();
  overlay.apply(g);
  EXPECT_EQ(g.upper_bound(VertexId{1}), 2);
  EXPECT_EQ(g.lower_bound(VertexId{1}), -RetimeGraph::kNoBound);
  EXPECT_EQ(g.lower_bound(VertexId{2}), -2);
  EXPECT_EQ(g.upper_bound(VertexId{2}), RetimeGraph::kNoBound);

  // Tighter bounds are progress.
  EXPECT_EQ(overlay.tighten(failure(1, 1, true)), "");
  EXPECT_EQ(overlay.tighten(failure(2, -1, false)), "");
  g = three_vertices();
  overlay.apply(g);
  EXPECT_EQ(g.upper_bound(VertexId{1}), 1);
  EXPECT_EQ(g.lower_bound(VertexId{2}), -1);
  EXPECT_EQ(g.lower_bound(VertexId{3}), -RetimeGraph::kNoBound);
  EXPECT_EQ(g.upper_bound(VertexId{3}), RetimeGraph::kNoBound);
}

TEST(BoundOverlayTest, ApplyIntersectsWithGraphBounds) {
  BoundOverlay overlay;
  ASSERT_EQ(overlay.tighten(failure(1, 3, true)), "");   // looser than 1
  ASSERT_EQ(overlay.tighten(failure(2, -3, false)), "");  // looser than -1
  ASSERT_EQ(overlay.tighten(failure(2, 2, true)), "");    // tighter than 4
  ASSERT_EQ(overlay.tighten(failure(3, 0, false)), "");
  RetimeGraph g = three_vertices();
  g.set_bounds(VertexId{1}, -5, 1);
  g.set_bounds(VertexId{2}, -1, 4);
  overlay.apply(g);
  EXPECT_EQ(g.lower_bound(VertexId{1}), -5);
  EXPECT_EQ(g.upper_bound(VertexId{1}), 1);
  EXPECT_EQ(g.lower_bound(VertexId{2}), -1);
  EXPECT_EQ(g.upper_bound(VertexId{2}), 2);
  EXPECT_EQ(g.lower_bound(VertexId{3}), 0);
  EXPECT_EQ(g.upper_bound(VertexId{3}), RetimeGraph::kNoBound);
  EXPECT_TRUE(g.has_bounds());

  // An empty overlay leaves the graph alone.
  RetimeGraph untouched = three_vertices();
  BoundOverlay().apply(untouched);
  EXPECT_FALSE(untouched.has_bounds());
}

TEST(BoundOverlayTest, ReapplyOnKeptGraphEqualsFreshLowering) {
  // mc_retime() lowers once and applies each retry's overlay to the kept
  // graph. Overlay bounds only tighten, so after every step the kept graph
  // must carry exactly the bounds of a fresh lowering under the overlay,
  // and its CSR view must stay the one built before the first retry.
  Netlist n = sweep(random_sequential_circuit(7), nullptr);
  set_default_lut_delays(n, 10);
  const McPrepared prepared = prepare_mc_graph(n, McRetimeOptions{});
  RetimeGraph kept = lower_to_retime_graph(prepared.graph, prepared.bounds);
  const RetimeGraph::CsrView& csr = kept.csr();
  const std::uint32_t* const out_to = csr.out_to.data();
  const std::size_t vertices = kept.vertex_count();
  ASSERT_GT(vertices, 6u);

  BoundOverlay overlay;
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE(step);
    // Alternate upper and lower bounds over five vertices, each tighter
    // than the overlay's last bound there.
    const std::uint32_t v = 1 + static_cast<std::uint32_t>(step % 5);
    const bool backward = step % 2 == 0;
    const std::int64_t achieved = backward ? 2 - step / 5 : -2 + step / 5;
    ASSERT_EQ(overlay.tighten(failure(v, achieved, backward)), "");
    overlay.apply(kept);
    RetimeGraph fresh = lower_to_retime_graph(prepared.graph, prepared.bounds);
    overlay.apply(fresh);
    EXPECT_EQ(kept.has_bounds(), fresh.has_bounds());
    for (std::uint32_t u = 0; u < vertices; ++u) {
      EXPECT_EQ(kept.lower_bound(VertexId{u}), fresh.lower_bound(VertexId{u}))
          << "vertex " << u;
      EXPECT_EQ(kept.upper_bound(VertexId{u}), fresh.upper_bound(VertexId{u}))
          << "vertex " << u;
    }
    EXPECT_EQ(&kept.csr(), &csr);
    EXPECT_EQ(kept.csr().out_to.data(), out_to) << "CSR view rebuilt";
    EXPECT_EQ(kept.csr().out_to, fresh.csr().out_to);
    EXPECT_EQ(kept.csr().in_from, fresh.csr().in_from);
  }
}

}  // namespace
}  // namespace mcrt
