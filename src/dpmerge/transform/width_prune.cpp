#include "dpmerge/transform/width_prune.h"

#include <algorithm>
#include <vector>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/check/check.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::transform {

using analysis::InfoContent;
using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

std::string PruneStats::to_string() const {
  return "nodes narrowed: " + std::to_string(nodes_narrowed) +
         ", edges narrowed: " + std::to_string(edges_narrowed) +
         ", extensions inserted: " + std::to_string(extensions_inserted) +
         ", node bits removed: " + std::to_string(bits_removed);
}

PruneStats prune_required_precision(Graph& g) {
  PruneStats stats;
  const auto rp = analysis::compute_required_precision(g);
  for (const Node& n : g.nodes()) {
    // Comparators are excluded: their width is the comparison width of the
    // operands, not the precision of the (1-bit) result.
    if (!dfg::is_arith_operator(n.kind) && n.kind != OpKind::Extension) {
      continue;
    }
    const int target = std::max(1, std::min(n.width, rp.r_out(n.id)));
    if (target < n.width) {
      stats.bits_removed += n.width - target;
      ++stats.nodes_narrowed;
      g.set_node_width(n.id, target);
    }
  }
  for (const Edge& e : g.edges()) {
    const int target = std::max(1, std::min(e.width, rp.r_in(e.dst)));
    if (target < e.width) {
      ++stats.edges_narrowed;
      g.set_edge_width(e.id, target);
    }
  }
  return stats;
}

PruneStats prune_info_content(Graph& g,
                              const analysis::InfoRefinements* refinements) {
  PruneStats stats;
  // The claims come from the shared analysis of the graph as it stands.
  // None of the rewrites below changes any claim — a narrowed edge still
  // delivers its operand bit for bit, a narrowed node's consumers see the
  // same operands through the fixed-up or re-extended out-edges — so the
  // pass needs no analysis of its own as it goes.
  const analysis::InfoAnalysis ia = analysis::compute_info_content(
      g, refinements ? *refinements : analysis::InfoRefinements{});

  // Snapshot (copy) the frozen order: the loop below inserts Extension
  // nodes, which invalidates the CSR cache mid-iteration. Inserted nodes
  // are not visited.
  const std::vector<NodeId> order = g.freeze().topo;
  std::vector<EdgeId> need_ext;
  for (NodeId id : order) {
    const OpKind kind = g.node(id).kind;

    // Lemma 5.7: narrow each in-edge to the content of the operand it
    // delivers. Not into Extension nodes, whose second resize uses the
    // node's own t(N) rather than t(e).
    if (kind != OpKind::Extension) {
      for (EdgeId eid : g.node(id).in) {
        const InfoContent op = ia.operand(eid);
        const int target = std::max(1, op.width);
        if (target < g.edge(eid).width) {
          ++stats.edges_narrowed;
          g.set_edge_width(eid, target);
          g.set_edge_sign(eid, op.sign);
        }
      }
    }

    const int W = g.node(id).width;
    const InfoContent claim = ia.out(id);
    if (!dfg::is_arith_operator(kind) || claim.width < 1 || claim.width >= W) {
      continue;
    }
    // Lemma 5.6: shrink the node to its information content. Out-edges are
    // adjusted so every consumer sees a bit-identical operand; only the
    // signed-content/zero-padding combination needs an explicit Extension
    // node (see DESIGN.md §2).
    const int i = claim.width;
    const Sign t = claim.sign;
    need_ext.clear();
    for (EdgeId eid : g.node(id).out) {
      const Edge& e = g.edge(eid);
      if (e.width <= i || e.sign == t) continue;
      if (t == Sign::Unsigned && e.sign == Sign::Signed) {
        g.set_edge_sign(eid, Sign::Unsigned);
        continue;
      }
      need_ext.push_back(eid);
    }
    stats.bits_removed += W - i;
    ++stats.nodes_narrowed;
    g.set_node_width(id, i);
    if (!need_ext.empty()) {
      ++stats.extensions_inserted;
      g.insert_extension_retarget(id, W, Sign::Signed, need_ext);
    }
  }
  return stats;
}

PruneStats normalize_widths(Graph& g, int max_rounds,
                            const analysis::InfoRefinements* refinements) {
  obs::Span span("transform.normalize_widths");
  check::enforce_pre(g, "transform.normalize_widths.pre");
  PruneStats total;
  int rounds = 0;
  for (int round = 0; round < max_rounds; ++round) {
    PruneStats s = prune_required_precision(g);
    s += prune_info_content(g, refinements);
    total += s;
    ++rounds;
    if (!s.changed()) break;
  }
  if (obs::StatSink* sink = obs::current_sink()) {
    sink->add("transform.prune.rounds", rounds);
    sink->add("transform.prune.nodes_narrowed", total.nodes_narrowed);
    sink->add("transform.prune.edges_narrowed", total.edges_narrowed);
    sink->add("transform.prune.extensions_inserted",
              total.extensions_inserted);
    sink->add("transform.prune.bits_removed", total.bits_removed);
  }
  check::enforce(g, "transform.normalize_widths");
  return total;
}

}  // namespace dpmerge::transform
