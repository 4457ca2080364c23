// How netlists are built and stored, checked against what they contain:
//   - Synthesised netlists are pinned by a structural digest: every gate's
//     type, drive, pins and output net, plus the name and nets of every
//     input and output bus. The digests cover the 42 `paper_flows` cells
//     (the 14 paper designs under all three flows) and `scale_suite(1000)`
//     under new-merge, the `netlist_1k` workload. Changes to how the
//     netlist is stored or built (gate layout, reservation) must leave
//     every digest as it is; a change to what is built shows here first.
//   - The flow report's cell histogram equals a recount of the gates.
//   - `synth::estimate_netlist`, which sizes the netlist reservation, is an
//     upper bound on the gates and nets of every netlist synthesised here,
//     under every adder architecture with Booth recoding on and off.
//   - Gate ids are indices: after `insert_buffer` shifts gates, `driver()`
//     and a spliced `IncrementalSta` agree with a recount and a rebuild.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "dpmerge/designs/scale.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/estimate.h"
#include "dpmerge/synth/flow.h"
#include "paper_designs.h"

namespace dpmerge {
namespace {

using netlist::Bus;
using netlist::Gate;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;
using synth::AdderArch;
using synth::Flow;

constexpr Flow kFlows[] = {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge};

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) {
    add(static_cast<std::int64_t>(s.size()));
    for (char c : s) add(static_cast<std::int64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t netlist_digest(const Netlist& n) {
  Digest d;
  d.add(n.gate_count());
  d.add(n.net_count());
  for (const Gate& g : n.gates()) {
    d.add(static_cast<std::int64_t>(g.type));
    d.add(static_cast<std::int64_t>(g.drive));
    d.add(static_cast<std::int64_t>(g.inputs.size()));
    for (NetId in : g.inputs) d.add(in.value);
    d.add(g.output.value);
  }
  for (const auto* buses : {&n.inputs(), &n.outputs()}) {
    d.add(static_cast<std::int64_t>(buses->size()));
    for (const Bus& b : *buses) {
      d.add(b.name);
      d.add(b.signal.width());
      for (NetId bit : b.signal.bits) d.add(bit.value);
    }
  }
  return d.value();
}

struct Pinned {
  const char* cell;
  std::uint64_t digest;
};

void expect_digests(const std::vector<std::pair<std::string, std::uint64_t>>&
                        got,
                    const std::vector<Pinned>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].cell);
    EXPECT_EQ(got[i].second, want[i].digest)
        << got[i].first << ": got 0x" << std::hex << got[i].second;
  }
}

TEST(NetlistBuild, PaperFlowDigestsArePinned) {
  const std::vector<Pinned> want = {
      {"D1/no-merge", 0x332c5a808314d484ULL},
      {"D1/old-merge", 0xa14b5e84f056e0f0ULL},
      {"D1/new-merge", 0x17fa5a0de3629799ULL},
      {"D2/no-merge", 0x5d8c59c3c4de00a3ULL},
      {"D2/old-merge", 0x4d39542bae5c1d79ULL},
      {"D2/new-merge", 0x098cca9a64b0df51ULL},
      {"D3/no-merge", 0xfef2c6d5332d597bULL},
      {"D3/old-merge", 0x523706ca3bb45c18ULL},
      {"D3/new-merge", 0x09c4bdaf9bd6564eULL},
      {"D4/no-merge", 0x0909a9aec4bf9d9cULL},
      {"D4/old-merge", 0x66ed0830859e76acULL},
      {"D4/new-merge", 0x985e347cd0ab8fb7ULL},
      {"D5/no-merge", 0x409761cf24e2cda9ULL},
      {"D5/old-merge", 0xce900aa6fe029bf5ULL},
      {"D5/new-merge", 0x4335cf0811cf9686ULL},
      {"fir8/no-merge", 0x0d5c6cb08523cb69ULL},
      {"fir8/old-merge", 0xd67480776c87086fULL},
      {"fir8/new-merge", 0x837c7467cb2cae2dULL},
      {"biquad/no-merge", 0xb47f57cf1fadff97ULL},
      {"biquad/old-merge", 0xb47f57cf1fadff97ULL},
      // biquad and dct4 multiply by constants with the top bit set; their
      // new-merge netlists changed when cluster_addends began reading such
      // a coefficient as the multiplier receives it (13, not -3), which
      // widens the Huffman bound on their cluster roots.
      {"biquad/new-merge", 0x526f1e2072d0cce9ULL},
      {"complex_mul/no-merge", 0x4d2e92248efe316aULL},
      {"complex_mul/old-merge", 0x4d2e92248efe316aULL},
      {"complex_mul/new-merge", 0xaac69ebe23be25e0ULL},
      {"dct4/no-merge", 0xf05def8af6fa98f4ULL},
      {"dct4/old-merge", 0xbd8471062c009fb4ULL},
      {"dct4/new-merge", 0x673e683e95d2c965ULL},
      {"matvec3/no-merge", 0x98948027d4a05ea1ULL},
      {"matvec3/old-merge", 0x98948027d4a05ea1ULL},
      {"matvec3/new-merge", 0x0d1598006d9fd796ULL},
      {"checksum8/no-merge", 0x8490801f2ea2edd8ULL},
      {"checksum8/old-merge", 0xa4ad5b2e2d316e95ULL},
      {"checksum8/new-merge", 0x84f8ca31812f814aULL},
      {"fir4.dp/no-merge", 0xb61101f94839c113ULL},
      {"fir4.dp/old-merge", 0xad8efc6225c592e4ULL},
      {"fir4.dp/new-merge", 0x31d92561bd733129ULL},
      {"saturating_diff.dp/no-merge", 0x53287c93b845f302ULL},
      {"saturating_diff.dp/old-merge", 0x53287c93b845f302ULL},
      {"saturating_diff.dp/new-merge", 0x53287c93b845f302ULL},
      {"truncated_mac.dp/no-merge", 0x06f386e78d54c3e2ULL},
      {"truncated_mac.dp/old-merge", 0x06f386e78d54c3e2ULL},
      {"truncated_mac.dp/new-merge", 0x58a40fed4a12424cULL},
  };
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const auto& d : test_support::paper_designs()) {
    for (Flow f : kFlows) {
      got.emplace_back(d.name + "/" + std::string(synth::to_string(f)),
                       netlist_digest(synth::run_flow(d.graph, f).net));
    }
  }
  expect_digests(got, want);
}

TEST(NetlistBuild, ScaleSuiteNewMergeDigestsArePinned) {
  const std::vector<Pinned> want = {
      {"layered_1201", 0xe067dba95a922516ULL},
      {"fir_1000", 0x38101fa9145a66b2ULL},
      {"dct_968", 0x988a38a91fb1a1c5ULL},
      {"matmul_1152", 0x7360e619a525c276ULL},
  };
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const auto& d : designs::scale_suite(1000)) {
    got.emplace_back(d.name, netlist_digest(
                                 synth::run_flow(d.graph, Flow::NewMerge).net));
  }
  expect_digests(got, want);
}

TEST(NetlistBuild, CellHistogramEqualsGateRecount) {
  std::vector<std::pair<std::string, dfg::Graph>> graphs;
  for (auto& d : test_support::paper_designs()) {
    graphs.emplace_back(d.name, std::move(d.graph));
  }
  for (auto& d : designs::scale_suite(1000)) {
    graphs.emplace_back(d.name, std::move(d.graph));
  }
  for (const auto& [name, g] : graphs) {
    for (Flow f : kFlows) {
      SCOPED_TRACE(name + "/" + std::string(synth::to_string(f)));
      const auto res = synth::run_flow(g, f);
      std::map<std::string, std::int64_t> recount;
      for (const Gate& gate : res.net.gates()) {
        ++recount[std::string(netlist::to_string(gate.type))];
      }
      EXPECT_EQ(res.report.cells_by_type, recount);
    }
  }
}

/// The partition and analysis `run_flow` hands the synthesiser, for
/// `flow` over `g` (normalised in place for new-merge).
struct Prepared {
  cluster::Partition partition;
  analysis::InfoAnalysis ia;
};

Prepared prepare(dfg::Graph& g, Flow flow) {
  switch (flow) {
    case Flow::NoMerge:
      return {cluster::cluster_none(g), analysis::compute_info_content(g)};
    case Flow::OldMerge:
      return {cluster::cluster_leakage(g), analysis::compute_info_content(g)};
    case Flow::NewMerge: {
      auto cr = synth::prepare_new_merge(g);
      return {std::move(cr.partition), std::move(cr.info)};
    }
  }
  return {};
}

/// Estimated over actual gates, summed over every netlist checked.
struct Ratio {
  std::int64_t estimated = 0;
  std::int64_t actual = 0;
  double worst = 0.0;

  void print(const char* what) const {
    std::printf("estimate/actual gates over %s: %.2f overall, %.2f worst\n",
                what, static_cast<double>(estimated) /
                          static_cast<double>(std::max<std::int64_t>(actual, 1)),
                worst);
  }
};

/// Synthesises `g` under `flow` with every adder architecture, Booth on
/// and off, and checks the estimate bounds each netlist.
void expect_estimate_bounds(const dfg::Graph& input, Flow flow,
                            const std::string& what, Ratio& ratio) {
  dfg::Graph g = input;
  const Prepared prep = prepare(g, flow);
  for (AdderArch arch : {AdderArch::Ripple, AdderArch::KoggeStone,
                         AdderArch::BrentKung, AdderArch::CarrySelect}) {
    for (bool booth : {false, true}) {
      synth::SynthOptions opt;
      opt.adder = arch;
      opt.booth_multipliers = booth;
      const Netlist net =
          synth::synthesize_partition(g, prep.partition, prep.ia, opt);
      const synth::NetlistEstimate est =
          synth::estimate_netlist(g, prep.partition, prep.ia, arch, booth);
      SCOPED_TRACE(what + "/" + std::string(synth::to_string(flow)) + " " +
                   std::string(synth::to_string(arch)) +
                   (booth ? " booth" : ""));
      EXPECT_GE(est.gates, net.gate_count());
      EXPECT_GE(est.nets, net.net_count());
      ratio.estimated += est.gates;
      ratio.actual += net.gate_count();
      if (net.gate_count() > 0) {
        ratio.worst = std::max(ratio.worst,
                               static_cast<double>(est.gates) /
                                   static_cast<double>(net.gate_count()));
      }
    }
  }
}

TEST(NetlistBuild, EstimateBoundsPaperCellsAndKernels) {
  Ratio ratio;
  for (const auto& d : test_support::paper_designs()) {
    for (Flow f : kFlows) expect_estimate_bounds(d.graph, f, d.name, ratio);
  }
  ratio.print("the paper cells");
}

TEST(NetlistBuild, EstimateBoundsScaleSuite) {
  Ratio ratio;
  for (const auto& d : designs::scale_suite(1000)) {
    expect_estimate_bounds(d.graph, Flow::NewMerge, d.name, ratio);
  }
  ratio.print("scale_suite(1000) new-merge");
}

TEST(NetlistBuild, EstimateBoundsRandomGraphs) {
  Ratio ratio;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    const dfg::Graph g = dfg::random_graph(rng);
    for (Flow f : kFlows) {
      expect_estimate_bounds(g, f, "seed " + std::to_string(seed), ratio);
    }
  }
  ratio.print("300 random DFGs");
}

/// Every net's driver as the gates stand: the index of the gate writing
/// it, or -1.
std::vector<int> recount_drivers(const Netlist& n) {
  std::vector<int> drv(static_cast<std::size_t>(n.net_count()), -1);
  for (std::size_t gi = 0; gi < n.gates().size(); ++gi) {
    drv[static_cast<std::size_t>(n.gates()[gi].output.value)] =
        static_cast<int>(gi);
  }
  return drv;
}

TEST(NetlistBuild, InsertBufferKeepsDriversAndStaInStep) {
  const auto& lib = netlist::CellLibrary::tsmc025();
  int splits = 0;
  for (auto& tc : designs::all_testcases()) {
    auto res = synth::run_flow(tc.graph, Flow::NewMerge);
    Netlist& net = res.net;
    netlist::IncrementalSta ista(net, lib);
    Rng rng(11);
    for (int k = 0; k < 12; ++k) {
      // A driven or primary-input net with readers, split keeping one of
      // them (or none) on the original net.
      const NetId target{static_cast<int>(rng.uniform(2, net.net_count() - 1))};
      const auto readers = ista.readers(target);
      if (readers.empty()) continue;
      const GateId keep = k % 2 ? GateId{readers.front()} : GateId{};
      net.insert_buffer(target, keep);
      ista.buffer_inserted(target);
      ++splits;
      const std::string when = tc.name + " split " + std::to_string(k);
      const std::vector<int> drv = recount_drivers(net);
      for (int n = 0; n < net.net_count(); ++n) {
        const Gate* d = net.driver(NetId{n});
        ASSERT_EQ(d ? net.id_of(*d).value : -1,
                  drv[static_cast<std::size_t>(n)])
            << when << " net " << n;
      }
      const netlist::IncrementalSta fresh(net, lib);
      ASSERT_EQ(ista.arrivals(), fresh.arrivals()) << when;
      ASSERT_EQ(ista.longest_path_ns(), fresh.longest_path_ns()) << when;
      for (int n = 0; n < net.net_count(); ++n) {
        const auto a = ista.readers(NetId{n});
        const auto b = fresh.readers(NetId{n});
        std::vector<int> ra(a.begin(), a.end()), rb(b.begin(), b.end());
        std::sort(ra.begin(), ra.end());
        std::sort(rb.begin(), rb.end());
        ASSERT_EQ(ra, rb) << when << " readers of net " << n;
      }
    }
  }
  EXPECT_GT(splits, 30);
}

}  // namespace
}  // namespace dpmerge
