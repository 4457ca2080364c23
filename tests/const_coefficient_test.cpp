// Differential test for constant coefficients in the Huffman bound
// (Observation 5.9). A product c*x inside a cluster becomes |c| copies of
// ±x, with c read as the multiplier receives it: the constant resized
// along its edge and read at its information-content claim. Constants with
// the top bit set are where a reading of the raw bit pattern goes wrong
// (1101 delivered unsigned is 13, not -3), so every graph here multiplies
// by such constants, delivered on signed and unsigned edges.
//
// Each random cluster is checked two ways:
//   - all three flows synthesise a netlist that matches the graph on 4096
//     stimuli;
//   - every cluster-root refinement the new-merge clusterer derives contains
//     every value the root takes, found by evaluating all input
//     combinations (the inputs total at most 12 bits).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dpmerge/cluster/clusterer.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
#include "dpmerge/transform/width_prune.h"

namespace dpmerge {
namespace {

using dfg::Builder;
using dfg::Graph;
using dfg::NodeId;
using dfg::Operand;

constexpr int kGraphs = 300;
constexpr int kStimuli = 4096;

Sign random_sign(Rng& rng) {
  return rng.chance(0.5) ? Sign::Signed : Sign::Unsigned;
}

/// y = ±c0*x0 ±c1*x1 [±c2*x2], every c_i a constant with its top bit set,
/// the x_i inputs of 2..4 bits. Inputs may repeat across terms. Sums are
/// lossless or one bit short (wrapping), so roots see both cases.
Graph random_const_cluster(Rng& rng) {
  Graph g;
  Builder b(g);
  const int num_inputs = static_cast<int>(rng.uniform(1, 3));
  std::vector<NodeId> xs;
  std::vector<int> xw;
  std::vector<Sign> xsign;
  for (int i = 0; i < num_inputs; ++i) {
    xw.push_back(static_cast<int>(rng.uniform(2, 4)));
    xsign.push_back(random_sign(rng));
    xs.push_back(b.input("x" + std::to_string(i), xw.back(), xsign.back()));
  }
  const int terms = static_cast<int>(rng.uniform(2, 3));
  NodeId acc{};
  int acc_w = 0;
  Sign acc_sign = Sign::Unsigned;
  for (int t = 0; t < terms; ++t) {
    const int xi = static_cast<int>(rng.uniform(0, num_inputs - 1));
    const int cw = static_cast<int>(rng.uniform(2, 6));
    const std::uint64_t top = std::uint64_t{1} << (cw - 1);
    const std::uint64_t c =
        top | static_cast<std::uint64_t>(
                  rng.uniform(0, static_cast<std::int64_t>(top) - 1));
    const NodeId k = g.add_const(BitVector::from_uint(cw, c));
    const Sign ck = random_sign(rng);
    const Sign xk = xsign[static_cast<std::size_t>(xi)];
    const int pw = cw + xw[static_cast<std::size_t>(xi)];
    const Operand kc{k, cw, ck};
    const Operand xc{xs[static_cast<std::size_t>(xi)], 0, xk};
    const NodeId prod = rng.chance(0.5) ? b.mul(pw, kc, xc) : b.mul(pw, xc, kc);
    const Sign ps = ck | xk;
    if (t == 0) {
      acc = prod;
      acc_w = pw;
      acc_sign = ps;
      continue;
    }
    const int w = std::max(acc_w, pw) + (rng.chance(0.8) ? 1 : 0);
    const Operand lhs{acc, acc_w, acc_sign};
    const Operand rhs{prod, pw, ps};
    acc = rng.chance(0.5) ? b.add(w, lhs, rhs) : b.sub(w, lhs, rhs);
    acc_w = w;
    acc_sign = Sign::Signed;
  }
  b.output("y", acc_w, Operand{acc, acc_w, acc_sign});
  return g;
}

/// Every input combination of `g` (inputs in graph order, LSB first).
std::vector<std::vector<BitVector>> all_stimuli(const Graph& g) {
  std::vector<int> widths;
  int total = 0;
  for (NodeId id : g.inputs()) {
    widths.push_back(g.node(id).width);
    total += widths.back();
  }
  std::vector<std::vector<BitVector>> out;
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << total); ++v) {
    std::vector<BitVector> stim;
    int shift = 0;
    for (int w : widths) {
      stim.push_back(BitVector::from_uint(w, v >> shift));
      shift += w;
    }
    out.push_back(std::move(stim));
  }
  return out;
}

TEST(ConstCoefficient, RandomClustersVerifyUnderEveryFlow) {
  for (int seed = 0; seed < kGraphs; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const Graph g = random_const_cluster(rng);
    ASSERT_TRUE(g.validate().empty()) << "seed " << seed;
    for (synth::Flow f : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                          synth::Flow::NewMerge}) {
      const auto res = synth::run_flow(g, f);
      Rng stim(static_cast<std::uint64_t>(seed) + 1000);
      std::string why;
      EXPECT_TRUE(synth::verify_netlist(res.net, g, kStimuli, stim, &why))
          << "seed " << seed << " " << synth::to_string(f) << ": " << why;
    }
  }
}

/// Checks every refinement of `refinements` narrower than its node against
/// the node's value under every input combination of `g`; returns how many
/// were checked.
int check_refinements(const Graph& g, const analysis::InfoRefinements& refs,
                      const std::string& where) {
  std::vector<std::size_t> roots;
  for (std::size_t n = 0; n < refs.size(); ++n) {
    if (refs[n] && refs[n]->width < g.node(NodeId{static_cast<int>(n)}).width) {
      roots.push_back(n);
    }
  }
  if (roots.empty()) return 0;
  const dfg::Evaluator ev(g);
  for (const auto& stim : all_stimuli(g)) {
    const std::vector<BitVector> values = ev.run(stim);
    for (std::size_t n : roots) {
      const analysis::InfoContent& claim = *refs[n];
      EXPECT_LE(values[n].min_extension_width(claim.sign), claim.width)
          << where << " node " << n << ": value " << values[n].to_string()
          << " escapes refinement " << claim.to_string();
      if (::testing::Test::HasFailure()) return 0;
    }
  }
  return static_cast<int>(roots.size());
}

/// The new-merge front end's rounds (`prepare_new_merge`), with the
/// refinements of each clustering checked on the graph they were derived
/// from, before width pruning consumes them.
TEST(ConstCoefficient, RootRefinementsContainEveryRootValue) {
  int checked = 0;
  for (int seed = 0; seed < kGraphs; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    Graph g = random_const_cluster(rng);
    transform::normalize_widths(g);
    for (int round = 0; round < 5; ++round) {
      const auto cr = cluster::cluster_maximal(g);
      checked += check_refinements(
          g, cr.refinements,
          "seed " + std::to_string(seed) + " round " + std::to_string(round));
      if (HasFailure()) return;
      if (!transform::normalize_widths(g, 8, &cr.refinements).changed()) break;
    }
  }
  EXPECT_GT(checked, kGraphs / 4);
}

}  // namespace
}  // namespace dpmerge
