#pragma once

#include <cstdint>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/cluster/partition.h"
#include "dpmerge/dfg/graph.h"
#include "dpmerge/support/limits.h"
#include "dpmerge/synth/cpa.h"

namespace dpmerge::synth {

/// Upper bounds on the size of the netlist `synthesize_partition` builds.
struct NetlistEstimate {
  std::int64_t gates = 0;
  std::int64_t nets = 0;  ///< constants and primary-input nets included
};

/// Bounds the gates and nets that synthesising `p` over `g` creates, from
/// the partition alone, before the first gate (the netlist-side companion
/// of `Limits`). Per cluster: every flattened term's partial-product rows
/// at the root width W, each with its AND and inverter gates; at most 5
/// gates per full adder, of which there are no more than the bits entering
/// the CSA tree; at most one half adder per column per reduction stage; and
/// the final CPA's gates for `adder`. Booth rows, inverted rows and
/// comparators are counted the same way. `ia` must be the analysis the
/// synthesiser is given: it fixes how constant operands extend.
///
/// The counts hold for every netlist synthesised from these arguments:
/// folding against constant nets only removes gates. Over-estimates are
/// cheap for the reservation they size (untouched pages are never faulted
/// in).
NetlistEstimate estimate_netlist(const dfg::Graph& g,
                                 const cluster::Partition& p,
                                 const analysis::InfoAnalysis& ia,
                                 AdderArch adder, bool booth);

}  // namespace dpmerge::synth
