// Every public header must be self-contained (include what it uses). This
// translation unit includes them all; compiling it is the test.
#include <gtest/gtest.h>

#include "base/ids.h"
#include "base/log.h"
#include "base/rng.h"
#include "base/strings.h"
#include "base/thread_pool.h"
#include "base/timer.h"
#include "bdd/bdd.h"
#include "blif/blif.h"
#include "flow/maxflow.h"
#include "flow/mincost_flow.h"
#include "graph/difference_constraints.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "graph/topo.h"
#include "mcretime/lower.h"
#include "mcretime/maximal_retiming.h"
#include "mcretime/mc_retime.h"
#include "mcretime/mcgraph.h"
#include "mcretime/rebuild.h"
#include "mcretime/register_class.h"
#include "mcretime/relocate.h"
#include "mcretime/reset_state.h"
#include "mcretime/sharing.h"
#include "netlist/dot_export.h"
#include "netlist/netlist.h"
#include "netlist/truth_table.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/diagnostics.h"
#include "pipeline/flow_context.h"
#include "pipeline/flow_script.h"
#include "pipeline/pass.h"
#include "pipeline/pass_manager.h"
#include "pipeline/passes.h"
#include "retime/feas.h"
#include "retime/minarea.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"
#include "retime/retime_graph.h"
#include "sim/equivalence.h"
#include "sim/simulator.h"
#include "sim/vcd.h"
#include "sim/word_simulator.h"
#include "tech/decompose.h"
#include "tech/flowmap.h"
#include "tech/sta.h"
#include "tech/timing_report.h"
#include "transform/decompose_controls.h"
#include "transform/rewrite.h"
#include "transform/strash.h"
#include "transform/sweep.h"
#include "verify/cut_depth.h"
#include "verify/formal_equivalence.h"
#include "verify/ternary_bmc.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

TEST(HeadersTest, AllPublicHeadersIncluded) {
  // The assertion is the successful compilation above; touch a couple of
  // symbols so nothing is optimized into irrelevance.
  EXPECT_EQ(trit_char(Trit::kUnknown), 'X');
  EXPECT_EQ(reset_val_char(ResetVal::kDontCare), '-');
}

}  // namespace
}  // namespace mcrt
