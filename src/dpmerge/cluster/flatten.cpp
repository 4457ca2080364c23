#include "dpmerge/cluster/flatten.h"

#include <algorithm>
#include <cstdlib>

namespace dpmerge::cluster {

using analysis::Addend;
using analysis::InfoAnalysis;
using analysis::InfoContent;
using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

FlattenedCluster flatten_cluster(const Graph& g, const Partition& p, int ci) {
  FlattenedCluster out;

  // Explicit-stack pre-order walk (clusters can be 100k-node chains; a
  // recursive walk overflows the stack). Each stack item is either a member
  // node to expand or an already-resolved term; both are pushed in reverse
  // operand order so terms pop out in the same left-to-right order the
  // natural recursion would emit them.
  struct Item {
    bool is_term;
    Term term;    // valid when is_term
    NodeId id;    // valid when !is_term
    bool neg;
    int shift;
  };
  std::vector<Item> stack;
  stack.push_back(
      Item{false, {}, p.clusters[static_cast<std::size_t>(ci)].root, false, 0});
  Item pending[2];
  while (!stack.empty()) {
    Item f = std::move(stack.back());
    stack.pop_back();
    if (f.is_term) {
      out.terms.push_back(std::move(f.term));
      continue;
    }
    const Node& n = g.node(f.id);
    int npending = 0;
    auto handle = [&](EdgeId eid, bool sub_neg, int shift) {
      const NodeId src = g.edge(eid).src;
      if (p.index_of(src) == ci) {
        pending[npending++] = Item{false, {}, src, sub_neg, shift};
      } else {
        pending[npending++] =
            Item{true, Term{sub_neg, {eid}, n.width, shift}, {}, false, 0};
      }
    };
    switch (n.kind) {
      case OpKind::Add:
        handle(n.in[0], f.neg, f.shift);
        handle(n.in[1], f.neg, f.shift);
        break;
      case OpKind::Sub:
        handle(n.in[0], f.neg, f.shift);
        handle(n.in[1], !f.neg, f.shift);
        break;
      case OpKind::Neg:
        handle(n.in[0], !f.neg, f.shift);
        break;
      case OpKind::Shl:
        // x << s scales every addend below by 2^s.
        handle(n.in[0], f.neg, f.shift + n.shift);
        break;
      case OpKind::Mul:
        // Synthesizability Condition 1 guarantees multiplier operands enter
        // the cluster from outside; the product is a single addend.
        out.terms.push_back(Term{f.neg, {n.in[0], n.in[1]}, n.width, f.shift});
        break;
      default:
        // Clusters contain only arithmetic operators.
        break;
    }
    for (int k = npending - 1; k >= 0; --k) {
      stack.push_back(std::move(pending[k]));
    }
  }
  return out;
}

std::vector<Addend> cluster_addends(const Graph& g,
                                    const FlattenedCluster& flat,
                                    const InfoAnalysis& ia) {
  std::vector<Addend> addends;
  for (const Term& t : flat.terms) {
    const std::int64_t sign = t.negate ? -1 : 1;
    // A path shift of s scales the addend by 2^s: s more content bits.
    auto shifted = [&t](InfoContent ic) {
      return ic.width == 0 ? ic : InfoContent{ic.width + t.shift, ic.sign};
    };
    if (t.factors.size() == 1) {
      addends.push_back(Addend{shifted(ia.operand(t.factors[0])), sign});
      continue;
    }
    // Product term: fold a small Const factor into a coefficient
    // (Observation 5.9); otherwise use the product's intrinsic content.
    const InfoContent ic0 = ia.operand(t.factors[0]);
    const InfoContent ic1 = ia.operand(t.factors[1]);
    int const_idx = -1;
    for (int k = 0; k < 2 && const_idx == -1; ++k) {
      const EdgeId e = t.factors[static_cast<std::size_t>(k)];
      const InfoContent claim = k == 0 ? ic0 : ic1;
      if (g.node(g.edge(e).src).kind == OpKind::Const && claim.width <= 63) {
        const_idx = k;
      }
    }
    if (const_idx >= 0) {
      const EdgeId e = t.factors[static_cast<std::size_t>(const_idx)];
      const Edge& edge = g.edge(e);
      const InfoContent claim = const_idx == 0 ? ic0 : ic1;
      // The coefficient is the operand the multiplier receives: the
      // constant resized to w(e) with t(e), then to the multiplier's width,
      // read as its claim reads it (the synthesiser gives the top bit
      // negative weight iff the claim is signed). The constant's own bit
      // pattern is not enough: 1101 delivered on an unsigned edge is 13,
      // not -3. Only the low claim.width <= 63 bits of each resize reach
      // the result, so one word holds every step.
      const BitVector& c = g.node(edge.src).value;
      const int w1 = std::min(edge.width, claim.width);
      const int w2 = std::min(t.consumed_width, claim.width);
      std::uint64_t carried = 0, delivered = 0, coefficient = 0;
      words::resize(&carried, w1, c.words().data(), c.width(), edge.sign);
      words::resize(&delivered, w2, &carried, w1, edge.sign);
      words::resize(&coefficient, 64, &delivered, w2, claim.sign);
      const auto cval = static_cast<std::int64_t>(coefficient);
      if (std::llabs(cval) <= 64) {
        const InfoContent other = const_idx == 0 ? ic1 : ic0;
        addends.push_back(Addend{shifted(other), sign * cval});
        continue;
      }
    }
    addends.push_back(Addend{shifted(analysis::ic_mul(ic0, ic1)), sign});
  }
  return addends;
}

InfoContent rebalanced_cluster_bound(const Graph& g, const Partition& p,
                                     int ci, const InfoAnalysis& ia) {
  return analysis::huffman_rebalanced_bound(
      cluster_addends(g, flatten_cluster(g, p, ci), ia));
}

}  // namespace dpmerge::cluster
