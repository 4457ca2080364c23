#include "dpmerge/synth/estimate.h"

#include <algorithm>
#include <optional>

#include "dpmerge/cluster/flatten.h"

namespace dpmerge::synth {

using analysis::InfoAnalysis;
using cluster::Partition;
using cluster::Term;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::OpKind;

namespace {

/// The value edge `e` delivers into its destination when its source is a
/// constant (the operand `operand_signal` builds from constant nets).
std::optional<BitVector> delivered_constant(const Graph& g, EdgeId e) {
  const dfg::Edge& edge = g.edge(e);
  const Node& src = g.node(edge.src);
  if (src.kind != OpKind::Const) return std::nullopt;
  return src.value.resize(edge.width, edge.sign)
      .resize(g.node(edge.dst).width, edge.sign);
}

/// Dadda reduction stages `CsaTree::reduce_and_sum` can run on columns at
/// most `height` bits tall: one per target height 2, 3, 4, 6, 9, ...
std::int64_t stage_bound(std::int64_t height) {
  std::int64_t stages = 1;
  for (std::int64_t t = 2; t < height; t = t * 3 / 2) ++stages;
  return stages;
}

/// Upper bound on the gates of one W-bit `cpa` of architecture `arch`.
std::int64_t cpa_gate_bound(AdderArch arch, int width) {
  const std::int64_t w = width;
  switch (arch) {
    case AdderArch::Ripple:
      return 5 * w;  // one full adder per bit
    case AdderArch::KoggeStone: {
      std::int64_t levels = 0;
      for (std::int64_t d = 1; d < w; d <<= 1) ++levels;
      // Propagate/generate (2w), carry-in fold (2), 3 gates per prefix
      // node and level, two sum XORs per bit.
      return 2 * w + 2 + 3 * w * levels + 2 * w;
    }
    case AdderArch::BrentKung:
      // Propagate/generate (2w), carry-in fold (2), at most 2w prefix
      // nodes of 3 gates, two sum XORs per bit.
      return 2 * w + 2 + 6 * w + 2 * w;
    case AdderArch::CarrySelect:
      // Two speculative full adders and a sum mux per bit, a carry mux per
      // block.
      return 11 * w + w + 1;
  }
  return 0;
}

/// Gates of the CSA tree plus CPA for cluster `ci`. Rows are W bits wide;
/// a negative row adds up to W inverters and a +1 bit. Every full adder
/// takes three bits and returns at most two, so there are no more full
/// adders than bits entering the tree; a column takes at most one half
/// adder per stage.
std::int64_t cluster_gate_bound(const Graph& g, const Partition& p, int ci,
                                const InfoAnalysis& ia, AdderArch adder,
                                bool booth) {
  const cluster::Cluster& c = p.clusters[static_cast<std::size_t>(ci)];
  const std::int64_t W = g.node(c.root).width;
  std::int64_t gates = 0;
  std::int64_t bits = 0;    // bits entering the tree
  std::int64_t height = 0;  // bound on the tallest column: one per addend
  auto add_row = [&](std::int64_t row_bits, bool negative) {
    ++height;
    if (negative) {
      gates += W;
      bits += W + 1;
      ++height;
    } else {
      bits += row_bits;
    }
  };

  for (const Term& t : cluster::flatten_cluster(g, p, ci).terms) {
    if (t.factors.size() == 1) {
      add_row(W, t.negate);
      continue;
    }
    const int bw = t.consumed_width;  // the multiplier operand's width
    if (booth) {
      for (int j = 0; 2 * j < bw + 1 && t.shift + 2 * j < W; ++j) {
        // Digit recoding (4), per column one magnitude mux of two ANDs and
        // an OR (3) and the conditional-negation XOR (1).
        gates += 4 + 4 * W;
        add_row(W, t.negate);
        add_row(t.negate ? W : 1, false);  // the +neg bit or the -neg row
      }
      continue;
    }
    // AND-array rows. A constant factor folds every AND away; a constant
    // multiplier also drops its zero rows, and a constant multiplicand
    // leaves at most its set bits in each row.
    const auto a_const = delivered_constant(g, t.factors[0]);
    const auto b_const = delivered_constant(g, t.factors[1]);
    std::int64_t a_bits = W;
    if (a_const) {
      const BitVector a_ext =
          a_const->resize(static_cast<int>(W), ia.operand(t.factors[0]).sign);
      a_bits = 0;
      for (int i = 0; i < a_ext.width(); ++i) a_bits += a_ext.bit(i);
    }
    const bool tb_signed = ia.operand(t.factors[1]).sign == Sign::Signed;
    for (int j = 0; j < std::min<std::int64_t>(bw, W); ++j) {
      const std::int64_t cols = std::max<std::int64_t>(0, W - j - t.shift);
      if (!a_const && !b_const) gates += cols;
      const bool negative = (tb_signed && j == bw - 1) != t.negate;
      const bool zero_row = b_const && !b_const->bit(j);
      add_row(zero_row ? 0 : std::min(cols, a_bits), negative);
    }
  }
  return gates + 5 * bits + 2 * W * stage_bound(height) +
         cpa_gate_bound(adder, static_cast<int>(W));
}

}  // namespace

NetlistEstimate estimate_netlist(const Graph& g, const Partition& p,
                                 const InfoAnalysis& ia, AdderArch adder,
                                 bool booth) {
  NetlistEstimate est;
  std::int64_t input_nets = 0;
  for (const Node& n : g.nodes()) {
    const std::int64_t w = n.width;
    switch (n.kind) {
      case OpKind::Input:
        input_nets += w;
        break;
      case OpKind::Const:
      case OpKind::Output:
      case OpKind::Extension:
        break;  // wiring only
      case OpKind::Eq:
        est.gates += 2 * w;  // per-bit XOR, OR tree, final INV
        break;
      case OpKind::LtS:
      case OpKind::LtU:
        // Inverted (w+1)-bit operand and the subtracting CPA.
        est.gates += (w + 1) + cpa_gate_bound(adder, n.width + 1);
        break;
      default: {
        const int ci = p.index_of(n.id);
        if (ci >= 0 && p.clusters[static_cast<std::size_t>(ci)].root == n.id) {
          est.gates += cluster_gate_bound(g, p, ci, ia, adder, booth);
        }
        break;
      }
    }
  }
  // Two constant nets, one per primary-input bit, one per gate.
  est.nets = 2 + input_nets + est.gates;
  return est;
}

}  // namespace dpmerge::synth
