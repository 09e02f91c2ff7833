// Minimum k-LUT mapping depth by exhaustive cut enumeration.
//
// The independent reference for FlowMap (tech/flowmap.h). FlowMap finds
// each net's label with one small max-flow; this module computes the same
// label straight from its definition. It enumerates the k-feasible cuts
// of every net bottom-up (a cut of a gate's output is a union of one cut
// per fanin, where a fanin's own net is also a cut of it) and takes
//
//     label(n) = min over cuts C of n of (max_{c in C} label(c) + 1),
//
// with label 0 on sources. Only minimal cuts are kept: a cut containing
// another one of the same net never gives a smaller label, and every
// minimal cut is a union of minimal fanin cuts, so nothing is lost.
//
// Sources and roots follow flowmap.h: primary inputs, register outputs and
// constants are sources; primary outputs and register D, clock and control
// pins are roots. The mapping depth is the largest root label, which is
// what FlowMapResult::depth reports.
//
// Enumeration is exponential in the worst case, so it is meant for the
// small circuits of tests and fuzz cases. It gives up once any net has too
// many minimal cuts, or merging one gate's fanin cuts takes too much work
// (the caps are fixed in cut_depth.cpp).
#pragma once

#include <cstdint>
#include <optional>

#include "netlist/netlist.h"

namespace mcrt {

/// Minimum depth of any k-LUT mapping of `subject`, or std::nullopt if the
/// enumeration exceeds its caps, some net has no k-feasible cut, or the
/// netlist has a combinational cycle.
std::optional<std::uint32_t> exhaustive_cut_depth(const Netlist& subject,
                                                  std::uint32_t k);

}  // namespace mcrt
