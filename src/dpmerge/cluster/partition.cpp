#include "dpmerge/cluster/partition.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace dpmerge::cluster {

using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

std::string Partition::summary(const Graph& g) const {
  std::ostringstream os;
  os << clusters.size() << " cluster(s):";
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    os << " [";
    for (std::size_t k = 0; k < clusters[i].nodes.size(); ++k) {
      if (k) os << " ";
      const Node& n = g.node(clusters[i].nodes[k]);
      os << dfg::to_string(n.kind) << n.id.value;
    }
    os << "]";
  }
  return os.str();
}

Partition partition_from_breaks(const Graph& g,
                                const std::vector<bool>& is_break) {
  Partition p;
  p.cluster_of.assign(static_cast<std::size_t>(g.node_count()), -1);

  const auto& order = g.freeze().topo;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Node& n = g.node(*it);
    if (!dfg::is_arith_operator(n.kind)) continue;
    const auto idx = static_cast<std::size_t>(n.id.value);

    // A non-break node may only join a cluster if *all* of its consumers are
    // clustered operators sharing one cluster; otherwise its value is needed
    // in more than one place and it must root its own cluster. This realises
    // Synthesizability Condition 2 (unique cluster outputs) — see DESIGN.md
    // §2 on the paper's garbled statement of that condition.
    int target = -1;
    bool must_root = is_break[idx] || n.out.empty();
    for (EdgeId eid : n.out) {
      if (must_root) break;
      const NodeId dst = g.edge(eid).dst;
      const int c = p.cluster_of[static_cast<std::size_t>(dst.value)];
      if (c < 0 || (target != -1 && target != c)) {
        must_root = true;
      } else {
        target = c;
      }
    }

    if (must_root) {
      p.cluster_of[idx] = static_cast<int>(p.clusters.size());
      Cluster c;
      c.root = n.id;
      c.nodes.push_back(n.id);
      p.clusters.push_back(std::move(c));
    } else {
      p.cluster_of[idx] = target;
      p.clusters[static_cast<std::size_t>(target)].nodes.push_back(n.id);
    }
  }

  // Collect input edges (edges whose destination is a member but whose
  // source is not), in deterministic edge-id order.
  for (const Edge& e : g.edges()) {
    const int cd = p.cluster_of[static_cast<std::size_t>(e.dst.value)];
    if (cd < 0) continue;
    const int cs = p.cluster_of[static_cast<std::size_t>(e.src.value)];
    if (cs != cd) {
      p.clusters[static_cast<std::size_t>(cd)].input_edges.push_back(e.id);
    }
  }
  return p;
}

std::vector<std::string> validate_partition(const Graph& g,
                                            const Partition& p) {
  std::vector<std::string> errs;
  auto err = [&errs](std::string m) { errs.push_back(std::move(m)); };

  // Node-indexed scratch, allocated once per call and stamped with cluster
  // indices, so no per-cluster clearing is needed: `member[n]` is the last
  // cluster whose list names n (-1 for none yet), `reached[n]` the last
  // cluster whose connectivity walk reached n. Membership comes from the
  // member lists, never from `cluster_of`, which is one of the things being
  // checked.
  const auto n_nodes = static_cast<std::size_t>(g.node_count());
  std::vector<int> member(n_nodes, -1);
  std::vector<int> reached(n_nodes, -1);
  std::vector<NodeId> stack;
  for (std::size_t ci = 0; ci < p.clusters.size(); ++ci) {
    const Cluster& c = p.clusters[ci];
    const int stamp = static_cast<int>(ci);
    if (c.nodes.empty()) {
      err("cluster " + std::to_string(ci) + " is empty");
      continue;
    }
    int distinct = 0;
    for (NodeId n : c.nodes) {
      if (!dfg::is_arith_operator(g.node(n).kind)) {
        err("cluster " + std::to_string(ci) +
            " contains a non-arithmetic node");
      }
      int& m = member[static_cast<std::size_t>(n.value)];
      if (m != -1) {
        err("node " + std::to_string(n.value) + " in two clusters");
      }
      if (m != stamp) ++distinct;
      m = stamp;
      if (p.index_of(n) != stamp) {
        err("cluster_of inconsistent for node " + std::to_string(n.value));
      }
    }
    auto is_member = [&](NodeId n) {
      return member[static_cast<std::size_t>(n.value)] == stamp;
    };
    // Unique output: exactly one member (the root) has out-edges leaving the
    // cluster; all other members' fanout stays inside.
    int exits = 0;
    for (NodeId n : c.nodes) {
      bool leaves = false;
      for (EdgeId eid : g.node(n).out) {
        if (!is_member(g.edge(eid).dst)) leaves = true;
      }
      if (leaves || g.node(n).out.empty()) {
        ++exits;
        if (n != c.root) {
          err("cluster " + std::to_string(ci) + ": node " +
              std::to_string(n.value) + " exits but is not the root");
        }
      }
    }
    if (exits != 1) {
      err("cluster " + std::to_string(ci) + " has " + std::to_string(exits) +
          " exit nodes");
    }
    // Connectivity (as an undirected subgraph). The root counts as reached
    // even when it is not listed as a member.
    int n_reached = 1;
    stack.assign(1, c.root);
    reached[static_cast<std::size_t>(c.root.value)] = stamp;
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      const Node& nd = g.node(cur);
      auto visit = [&](NodeId nb) {
        int& r = reached[static_cast<std::size_t>(nb.value)];
        if (is_member(nb) && r != stamp) {
          r = stamp;
          ++n_reached;
          stack.push_back(nb);
        }
      };
      for (EdgeId eid : nd.in) visit(g.edge(eid).src);
      for (EdgeId eid : nd.out) visit(g.edge(eid).dst);
    }
    if (n_reached != distinct) {
      err("cluster " + std::to_string(ci) + " is not connected");
    }
  }
  // Coverage: every arithmetic node clustered.
  for (const Node& n : g.nodes()) {
    if (dfg::is_arith_operator(n.kind) &&
        member[static_cast<std::size_t>(n.id.value)] == -1) {
      err("arithmetic node " + std::to_string(n.id.value) + " unclustered");
    }
  }
  return errs;
}

Components connected_components(const Graph& g) {
  const dfg::Csr& c = g.freeze();
  const int n = g.node_count();
  Components out;
  out.component.assign(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> stack;
  for (std::int32_t seed = 0; seed < n; ++seed) {
    if (out.component[static_cast<std::size_t>(seed)] != -1) continue;
    const int id = out.count++;
    out.component[static_cast<std::size_t>(seed)] = id;
    stack.push_back(seed);
    while (!stack.empty()) {
      const std::int32_t v = stack.back();
      stack.pop_back();
      auto visit = [&](std::int32_t w) {
        auto& cw = out.component[static_cast<std::size_t>(w)];
        if (cw == -1) {
          cw = id;
          stack.push_back(w);
        }
      };
      for (std::int32_t eid : c.out(NodeId{v})) visit(g.edge(EdgeId{eid}).dst.value);
      for (std::int32_t eid : c.in(NodeId{v})) visit(g.edge(EdgeId{eid}).src.value);
    }
  }
  return out;
}

}  // namespace dpmerge::cluster
