// Property tests for IncrementalSta: after arbitrary sequences of drive
// changes, arrivals, loads, the longest path and the critical path must
// match a from-scratch Sta::analyze; rollback() restores the state before
// the update bit for bit; buffer_inserted() leaves exactly the state a
// rebuild() computes, for arbitrary splits and for every split the
// optimiser makes; and the optimizer's cross-check flag holds over a full
// optimization run.

#include "dpmerge/netlist/sta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/opt/timing_opt.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"
#include "paper_designs.h"

namespace dpmerge {
namespace {

using netlist::CellLibrary;
using netlist::GateId;
using netlist::IncrementalSta;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sta;
using synth::Flow;

constexpr Flow kFlows[] = {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge};

void expect_matches_full(const Netlist& net, const IncrementalSta& ista,
                         const Sta& sta, const char* when) {
  const auto full = sta.analyze(net);
  EXPECT_NEAR(full.longest_path_ns, ista.longest_path_ns(), 1e-12) << when;
  const auto loads = sta.net_loads(net);
  for (int n = 0; n < net.net_count(); ++n) {
    const auto ni = static_cast<std::size_t>(n);
    ASSERT_NEAR(full.arrival[ni], ista.arrivals()[ni], 1e-12)
        << when << " net " << n;
    ASSERT_NEAR(loads[ni], ista.load(NetId{n}), 1e-12) << when << " net " << n;
  }
  EXPECT_EQ(full.critical_path, ista.critical_path()) << when;
}

/// Everything IncrementalSta reports, for bit-exact comparisons.
struct Snapshot {
  double longest = 0.0;
  std::vector<double> arrival;
  std::vector<double> load;
  std::vector<NetId> path;
  std::vector<std::vector<int>> readers;

  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const Netlist& net, const IncrementalSta& ista) {
  Snapshot s;
  s.longest = ista.longest_path_ns();
  s.arrival = ista.arrivals();
  s.path = ista.critical_path();
  for (int n = 0; n < net.net_count(); ++n) {
    s.load.push_back(ista.load(NetId{n}));
    const auto r = ista.readers(NetId{n});
    s.readers.emplace_back(r.begin(), r.end());
  }
  return s;
}

/// Bit-exact agreement with a full Sta::analyze / Sta::net_loads.
void expect_bit_equal_to_full(const Netlist& net, const IncrementalSta& ista,
                              const Sta& sta, const std::string& when) {
  const auto full = sta.analyze(net);
  EXPECT_EQ(full.longest_path_ns, ista.longest_path_ns()) << when;
  EXPECT_EQ(full.arrival, ista.arrivals()) << when;
  EXPECT_EQ(full.critical_path, ista.critical_path()) << when;
  const auto loads = sta.net_loads(net);
  for (int n = 0; n < net.net_count(); ++n) {
    ASSERT_EQ(loads[static_cast<std::size_t>(n)], ista.load(NetId{n}))
        << when << " net " << n;
  }
}

TEST(IncrementalSta, MatchesFullAnalyzeAfterRandomDriveChanges) {
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  Rng rng(31);
  for (const auto& tc : designs::all_testcases()) {
    auto flow = synth::run_flow(tc.graph, synth::Flow::NewMerge);
    IncrementalSta ista(flow.net, lib);
    expect_matches_full(flow.net, ista, sta, "initial");
    for (int step = 0; step < 120; ++step) {
      const int gi =
          static_cast<int>(rng.uniform(0, flow.net.gate_count() - 1));
      flow.net.mutable_gates()[static_cast<std::size_t>(gi)].drive =
          static_cast<int>(rng.uniform(0, netlist::kDriveLevels - 1));
      ista.update_drive_change(GateId{gi});
      if (step % 10 == 0 || step > 110) {
        expect_matches_full(flow.net, ista, sta, tc.name.c_str());
      }
    }
    expect_matches_full(flow.net, ista, sta, "final");
  }
}

TEST(IncrementalSta, RebuildRestoresInvariantsAfterTopologyEdit) {
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  auto flow = synth::run_flow(designs::make_d1(), synth::Flow::OldMerge);
  IncrementalSta ista(flow.net, lib);

  // Buffer-split a multi-fanout net the way the optimizer does, then
  // rebuild.
  const auto loads = sta.net_loads(flow.net);
  NetId worst{-1};
  double worst_load = 0.0;
  for (int n = 2; n < flow.net.net_count(); ++n) {
    if (loads[static_cast<std::size_t>(n)] > worst_load) {
      worst_load = loads[static_cast<std::size_t>(n)];
      worst = NetId{n};
    }
  }
  ASSERT_TRUE(worst.valid());
  // Keep the first reader on the original net.
  GateId keep{};
  for (const auto& g : flow.net.gates()) {
    for (NetId in : g.inputs) {
      if (in == worst && keep.value < 0) keep = flow.net.id_of(g);
    }
  }
  EXPECT_GT(flow.net.insert_buffer(worst, keep), 0);
  EXPECT_TRUE(flow.net.validate().empty());
  ista.rebuild();
  expect_matches_full(flow.net, ista, sta, "after rebuild");
}

TEST(IncrementalSta, DownsizeSequencesStayConsistent) {
  // The area-recovery pattern: repeated down/up flips of the same gates.
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  auto flow = synth::run_flow(designs::make_d3(), synth::Flow::NewMerge);
  for (auto& g : flow.net.mutable_gates()) g.drive = netlist::kDriveLevels - 1;
  IncrementalSta ista(flow.net, lib);
  expect_matches_full(flow.net, ista, sta, "all X4");
  for (auto& g : flow.net.mutable_gates()) {
    const GateId id = flow.net.id_of(g);
    --g.drive;
    ista.update_drive_change(id);
    ++g.drive;
    ista.update_drive_change(id);
    --g.drive;
    ista.update_drive_change(id);
  }
  expect_matches_full(flow.net, ista, sta, "after recovery walk");
}

TEST(IncrementalSta, RollbackRestoresStateBitForBit) {
  // Netlists of random DFGs under every flow; random drive changes, each
  // either kept or undone by rollback(). After every rollback the state
  // must be the one before the update, bit for bit, and agree with a full
  // analysis of the (restored) netlist.
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  int rollbacks = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng grng(seed);
    const dfg::Graph g = dfg::random_graph(grng);
    for (Flow flow : kFlows) {
      auto res = synth::run_flow(g, flow);
      if (res.net.gate_count() == 0) continue;
      IncrementalSta ista(res.net, lib);
      Rng rng(seed * 3 + static_cast<std::uint64_t>(flow));
      const std::string where = "seed " + std::to_string(seed) + " " +
                                std::string(synth::to_string(flow));
      for (int step = 0; step < 30; ++step) {
        const int gi =
            static_cast<int>(rng.uniform(0, res.net.gate_count() - 1));
        auto& gate = res.net.mutable_gates()[static_cast<std::size_t>(gi)];
        const int old_drive = gate.drive;
        const Snapshot before = snapshot(res.net, ista);
        gate.drive = static_cast<int>(rng.uniform(0, netlist::kDriveLevels - 1));
        ista.update_drive_change(GateId{gi});
        if (rng.uniform(0, 2) == 0) continue;  // keep this one
        gate.drive = old_drive;
        ista.rollback();
        ++rollbacks;
        ASSERT_TRUE(snapshot(res.net, ista) == before)
            << where << " step " << step;
        expect_bit_equal_to_full(res.net, ista, sta, where);
      }
    }
  }
  EXPECT_GT(rollbacks, 1000);
}

TEST(IncrementalSta, RollbackNeedsAnUpdateToUndo) {
  const auto& lib = CellLibrary::tsmc025();
  auto flow = synth::run_flow(designs::make_d1(), Flow::NewMerge);
  IncrementalSta ista(flow.net, lib);
  EXPECT_THROW(ista.rollback(), std::logic_error);  // nothing since build
  ista.update_drive_change(GateId{0});
  ista.rollback();
  EXPECT_THROW(ista.rollback(), std::logic_error);  // already undone
  ista.update_drive_change(GateId{0});
  ista.rebuild();
  EXPECT_THROW(ista.rollback(), std::logic_error);  // rebuild drops the log
}

TEST(IncrementalSta, BufferSpliceEqualsRebuild) {
  // Arbitrary fanout splits on every paper design under every flow: every
  // keep choice (the first reader, the last, none, the only reader of a
  // single-reader net — nothing moves, so the net's reader slice must
  // grow) and a primary input (the buffer goes to gate 0, so every gate
  // shifts). After each splice the state must equal a rebuild's, reader
  // lists included, and stay equal through a later drive change.
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  int splits = 0;
  int unmoved = 0;
  for (const auto& d : test_support::paper_designs()) {
    for (Flow flow : kFlows) {
      auto res = synth::run_flow(d.graph, flow);
      Netlist& net = res.net;
      IncrementalSta ista(net, lib);
      Rng rng(static_cast<std::uint64_t>(splits) + 17);
      const std::string where =
          d.name + "/" + std::string(synth::to_string(flow));
      for (int k = 0; k < 8; ++k) {
        std::vector<NetId> cands;
        for (int n = 2; n < net.net_count(); ++n) {
          if (!ista.readers(NetId{n}).empty()) cands.push_back(NetId{n});
        }
        if (cands.empty()) break;
        NetId target = cands[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(cands.size()) - 1))];
        if (k == 0 && !net.inputs().empty() &&
            !net.inputs()[0].signal.bits.empty() &&
            !net.is_const(net.inputs()[0].signal.bit(0))) {
          target = net.inputs()[0].signal.bit(0);
        }
        if (k == 1) {  // a single-reader net, kept whole
          for (NetId c : cands) {
            if (ista.readers(c).size() == 1) target = c;
          }
        }
        const auto rd = ista.readers(target);
        GateId keep{};
        if (k == 1 || k % 3 == 0) keep = GateId{rd.front()};
        if (k % 3 == 2) keep = GateId{rd.back()};
        const int moved = net.insert_buffer(target, keep);
        ista.buffer_inserted(target);
        ++splits;
        unmoved += moved == 0;
        const std::string when = where + " split " + std::to_string(k);
        ASSERT_TRUE(net.validate().empty()) << when;
        const IncrementalSta fresh(net, lib);
        ASSERT_TRUE(snapshot(net, ista) == snapshot(net, fresh)) << when;
        expect_bit_equal_to_full(net, ista, sta, when);

        const int gi = static_cast<int>(rng.uniform(0, net.gate_count() - 1));
        auto& gate = net.mutable_gates()[static_cast<std::size_t>(gi)];
        gate.drive = (gate.drive + 1) % netlist::kDriveLevels;
        ista.update_drive_change(GateId{gi});
        IncrementalSta fresh2(net, lib);
        ASSERT_TRUE(snapshot(net, ista) == snapshot(net, fresh2))
            << when << " then resize gate " << gi;
      }
    }
  }
  EXPECT_GT(splits, 300);
  EXPECT_GT(unmoved, 0);
}

TEST(IncrementalSta, OptimiserSplicesEqualRebuildOnPaperDesigns) {
  // Table 2's settings on the 14 paper designs under every flow, with the
  // optimiser's cross-check on: after every splice and every rollback it
  // compares the incremental state bit for bit with a rebuild (and with a
  // full analysis) and throws on any difference.
  const auto& lib = CellLibrary::tsmc025();
  const Sta sta(lib);
  const opt::TimingOptimizer optimizer(lib);
  obs::StatSink sink;
  const obs::StatScope scope(&sink);
  for (const auto& d : test_support::paper_designs()) {
    opt::TimingOptOptions o;
    o.target_ns =
        0.93 * sta.analyze(synth::run_flow(d.graph, Flow::NewMerge).net)
                   .longest_path_ns;
    o.max_moves = 5000;
    o.cross_check_sta = true;
    for (Flow flow : kFlows) {
      auto res = synth::run_flow(d.graph, flow);
      EXPECT_NO_THROW(optimizer.optimize(res.net, o))
          << d.name << "/" << synth::to_string(flow);
    }
  }
  if (obs::compiled_in()) {
    EXPECT_GT(sink.get("opt.buffer.accept") + sink.get("opt.buffer.reject"),
              100);
    // Every rejected upsize is undone by a rollback; so are area-recovery
    // downsizes that miss the target.
    EXPECT_GE(sink.get("sta.incremental_rollbacks"),
              sink.get("opt.upsize.reject"));
    EXPECT_GT(sink.get("opt.upsize.reject"), 0);
  }
}

TEST(IncrementalSta, ReportMatchesAnalyzeFormat) {
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  auto flow = synth::run_flow(designs::make_d2(), synth::Flow::NewMerge);
  IncrementalSta ista(flow.net, lib);
  const auto full = sta.analyze(flow.net);
  const auto rep = ista.report();
  EXPECT_EQ(full.critical_path, rep.critical_path);
  EXPECT_NEAR(full.longest_path_ns, rep.longest_path_ns, 1e-12);
  ASSERT_EQ(full.arrival.size(), rep.arrival.size());
}

TEST(TimingOpt, CrossCheckedOptimizationRunsClean) {
  // With cross_check_sta on, every incremental update during a real
  // optimization run is verified against a full analyze; a divergence
  // throws and fails the test.
  const auto& lib = CellLibrary::tsmc025();
  auto flow = synth::run_flow(designs::make_d1(), synth::Flow::OldMerge);
  Sta sta(lib);
  opt::TimingOptimizer optimizer(lib);
  opt::TimingOptOptions o;
  o.target_ns = sta.analyze(flow.net).longest_path_ns * 0.9;
  o.max_moves = 300;
  o.cross_check_sta = true;
  const auto res = optimizer.optimize(flow.net, o);
  EXPECT_LE(res.final_ns, res.initial_ns);
}

}  // namespace
}  // namespace dpmerge
