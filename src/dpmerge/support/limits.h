#pragma once

namespace dpmerge {

/// Resource bounds every input must respect before any analysis or
/// synthesis runs, so that hostile sizes end in a located diagnostic rather
/// than a hang or an unbounded allocation. The bounds are constants of the
/// tool, not options: a design that needs more is outside what the flows
/// are built for.
///
/// Widths are checked where text becomes a graph: the `.dp` parser
/// (declared, literal and derived widths) and `dfg::parse_graph` (every
/// node and edge width). The netlist side has its bound in
/// `synth::estimate_netlist` (dpmerge/synth/estimate.h): an upper bound on
/// the gates and nets a partition synthesises to, computed before the
/// first gate, which a gate-count limit would check against.
struct Limits {
  /// Widest signal, in bits, of any node or edge.
  static constexpr int max_width = 1 << 16;
};

}  // namespace dpmerge
