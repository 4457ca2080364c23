// Property tests for the word-parallel simulator: lane-for-lane agreement
// with the scalar oracle on randomly generated DFGs synthesized through all
// three flows, packed cell semantics, and verify_netlist's packed path
// agreeing with the scalar reference implementation.

#include "dpmerge/netlist/packed_sim.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/sim.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
#include "dpmerge/transform/width_prune.h"

namespace dpmerge {
namespace {

using netlist::CellType;
using netlist::PackedSimulator;
using netlist::Simulator;
using synth::Flow;

std::vector<std::vector<BitVector>> random_stimuli(const netlist::Netlist& n,
                                                   int lanes, Rng& rng) {
  std::vector<std::vector<BitVector>> stimuli(
      static_cast<std::size_t>(lanes));
  for (auto& lane : stimuli) {
    for (const auto& bus : n.inputs()) {
      lane.push_back(rng.bits(bus.signal.width()));
    }
  }
  return stimuli;
}

TEST(PackedSim, EvalCellPackedMatchesScalar) {
  for (int ti = 0; ti < 9; ++ti) {
    const auto t = static_cast<CellType>(ti);
    const int n = netlist::cell_input_count(t);
    // Pack every input combination into distinct lanes: lane L carries
    // combination L, so word k has bit L = (L >> k) & 1.
    std::uint64_t words[3] = {0, 0, 0};
    const int combos = 1 << n;
    for (int L = 0; L < combos; ++L) {
      for (int k = 0; k < n; ++k) {
        words[k] |= static_cast<std::uint64_t>((L >> k) & 1) << L;
      }
    }
    const std::uint64_t out = netlist::eval_cell_packed(t, words);
    for (int L = 0; L < combos; ++L) {
      std::vector<bool> ins;
      for (int k = 0; k < n; ++k) ins.push_back((L >> k) & 1);
      EXPECT_EQ((out >> L) & 1, eval_cell(t, ins))
          << to_string(t) << " combo " << L;
    }
  }
}

TEST(PackedSim, MatchesScalarOnRandomNetlistsAllFlows) {
  Rng rng(20260806);
  for (int round = 0; round < 3; ++round) {
    dfg::RandomGraphOptions opt;
    opt.num_inputs = 3 + round;
    opt.num_operators = 8 + 4 * round;
    const auto g = dfg::random_graph(rng, opt);
    for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
      const auto flow = synth::run_flow(g, f);
      Simulator scalar(flow.net);
      PackedSimulator packed(flow.net);
      const auto stimuli =
          random_stimuli(flow.net, PackedSimulator::kLanes, rng);
      const auto batch = packed.run_batch(stimuli);
      ASSERT_EQ(batch.size(), stimuli.size());
      for (std::size_t L = 0; L < stimuli.size(); ++L) {
        const auto expect = scalar.run(stimuli[L]);
        ASSERT_EQ(batch[L].size(), expect.size());
        for (std::size_t j = 0; j < expect.size(); ++j) {
          EXPECT_EQ(batch[L][j], expect[j])
              << "flow " << synth::to_string(f) << " lane " << L << " output "
              << flow.net.outputs()[j].name;
        }
      }
    }
  }
}

TEST(PackedSim, PartialBatchesWork) {
  Rng rng(5);
  dfg::RandomGraphOptions opt;
  const auto g = dfg::random_graph(rng, opt);
  const auto flow = synth::run_flow(g, Flow::NewMerge);
  Simulator scalar(flow.net);
  PackedSimulator packed(flow.net);
  for (int lanes : {1, 3, 63}) {
    const auto stimuli = random_stimuli(flow.net, lanes, rng);
    const auto batch = packed.run_batch(stimuli);
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(lanes));
    for (std::size_t L = 0; L < batch.size(); ++L) {
      EXPECT_EQ(batch[L], scalar.run(stimuli[L])) << "lane " << L;
    }
  }
  EXPECT_TRUE(packed.run_batch({}).empty());
}

TEST(PackedSim, RejectsBadStimuli) {
  Rng rng(6);
  dfg::RandomGraphOptions opt;
  const auto g = dfg::random_graph(rng, opt);
  const auto flow = synth::run_flow(g, Flow::NoMerge);
  PackedSimulator packed(flow.net);
  EXPECT_THROW(packed.run({}), std::invalid_argument);
  auto stimuli = random_stimuli(flow.net, 2, rng);
  stimuli[1][0] = BitVector(stimuli[1][0].width() + 1);
  EXPECT_THROW(packed.run_batch(stimuli), std::invalid_argument);
  EXPECT_THROW(
      packed.run_batch(std::vector<std::vector<BitVector>>(65)),
      std::invalid_argument);
}

/// Multi-word shifts by 64 and more, Extension nodes that truncate and
/// re-extend, and comparators over multi-word operands.
dfg::Graph wide_shift_graph() {
  dfg::Graph g;
  dfg::Builder b(g);
  const auto a = b.input("a", 100);
  const auto c = b.input("c", 70);
  const auto s1 = b.shl(130, {a, 100, Sign::Signed}, 70);
  const auto s2 = b.shl(130, {c, 130, Sign::Signed}, 64);
  const auto sum = b.add(130, {s1}, {s2});
  const auto narrow =
      b.extension(100, Sign::Signed, {sum, 120, Sign::Unsigned});
  const auto wide = b.extension(130, Sign::Signed, {narrow});
  const auto low = b.extension(64, Sign::Signed, {a, 30, Sign::Unsigned});
  const auto lt = b.lt_signed(130, {s1}, {s2});
  const auto ltu = b.lt_unsigned(100, {a}, {c, 100, Sign::Signed});
  const auto eq = b.eq(70, {c}, {a, 70});
  b.output("sum", 130, {sum});
  b.output("wide", 130, {wide});
  b.output("low", 64, {low});
  b.output("lt", 1, {lt, 1});
  b.output("ltu", 1, {ltu, 1});
  b.output("eq", 1, {eq, 1});
  return g;
}

TEST(PackedVerify, AgreesWithScalarOracle) {
  Rng graph_rng(777);
  std::vector<dfg::Graph> graphs;
  for (int round = 0; round < 3; ++round) {
    dfg::RandomGraphOptions opt;
    opt.num_operators = 10 + 3 * round;
    graphs.push_back(dfg::random_graph(graph_rng, opt));
  }
  // Multi-word nodes, and the same graphs after the information-content
  // pass, which materialises Extension nodes.
  for (int round = 0; round < 2; ++round) {
    dfg::RandomGraphOptions opt;
    opt.max_width = 130;
    opt.num_operators = 8 + 3 * round;
    graphs.push_back(dfg::random_graph(graph_rng, opt));
    dfg::Graph pruned = graphs.back();
    transform::prune_info_content(pruned);
    graphs.push_back(std::move(pruned));
  }
  graphs.push_back(wide_shift_graph());

  bool multi_word = false, extension = false;
  for (const auto& g : graphs) {
    for (int v = 0; v < g.node_count(); ++v) {
      const dfg::Node& n = g.node(dfg::NodeId{v});
      multi_word |= n.width > 64;
      extension |= n.kind == dfg::OpKind::Extension;
    }
  }
  EXPECT_TRUE(multi_word);
  EXPECT_TRUE(extension);

  for (std::size_t round = 0; round < graphs.size(); ++round) {
    const dfg::Graph& g = graphs[round];
    for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
      auto flow = synth::run_flow(g, f);
      // Same seed for both paths: identical stimulus sequences.
      Rng r1(1000 + round), r2(1000 + round);
      std::string why1, why2;
      const bool ok_packed = synth::verify_netlist(flow.net, g, 100, r1, &why1);
      const bool ok_scalar =
          synth::verify_netlist_scalar(flow.net, g, 100, r2, &why2);
      EXPECT_TRUE(ok_packed) << "graph " << round << ": " << why1;
      EXPECT_EQ(ok_packed, ok_scalar);

      // A corrupted netlist must get the same verdict (and, on failure,
      // the same first-mismatch report) from both paths. Inverting a
      // gate's output sense keeps its arity.
      auto flipped = [](CellType t) {
        switch (t) {
          case CellType::INV: return CellType::BUF;
          case CellType::BUF: return CellType::INV;
          case CellType::NAND2: return CellType::AND2;
          case CellType::AND2: return CellType::NAND2;
          case CellType::NOR2: return CellType::OR2;
          case CellType::OR2: return CellType::NOR2;
          case CellType::XOR2: return CellType::XNOR2;
          case CellType::XNOR2: return CellType::XOR2;
          case CellType::MUX2: return CellType::MUX2;
        }
        return t;
      };
      for (auto& gate : flow.net.mutable_gates()) {
        if (flipped(gate.type) == gate.type) continue;
        const auto orig = gate.type;
        gate.type = flipped(orig);
        Rng r3(55), r4(55);
        const bool bad_packed =
            synth::verify_netlist(flow.net, g, 100, r3, &why1);
        const bool bad_scalar =
            synth::verify_netlist_scalar(flow.net, g, 100, r4, &why2);
        EXPECT_EQ(bad_packed, bad_scalar);
        if (!bad_packed && !bad_scalar) {
          EXPECT_EQ(why1, why2);
        }
        gate.type = orig;
        break;
      }
    }
  }
}

TEST(PackedVerify, MissingAndMisWidthOutputBusesAgreeWithScalarOracle) {
  dfg::Graph g;
  dfg::Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  b.output("y", 4, {b.add(4, {a}, {c})});

  // XOR instead of an adder: right on the all-zeros corner, wrong after.
  auto netlist_with_output = [](const std::string& name, int width) {
    netlist::Netlist n;
    netlist::Signal a, c, y;
    for (int i = 0; i < 4; ++i) {
      a.bits.push_back(n.new_net());
      c.bits.push_back(n.new_net());
    }
    n.add_input("a", a);
    n.add_input("c", c);
    for (int i = 0; i < width; ++i) y.bits.push_back(n.xor2(a.bit(i), c.bit(i)));
    n.add_output(name, y);
    return n;
  };
  struct Case {
    std::string name;
    int width;
    std::string why;
  };
  for (const Case& k : {Case{"z", 4, "output 'y': dfg=0000 netlist=<missing>"},
                        Case{"y", 3, "output 'y': dfg=0000 netlist=000"},
                        Case{"y", 4, "output 'y': dfg=1110 netlist=0000"}}) {
    const netlist::Netlist n = netlist_with_output(k.name, k.width);
    Rng r1(9), r2(9);
    std::string why1, why2;
    EXPECT_FALSE(synth::verify_netlist(n, g, 100, r1, &why1)) << k.why;
    EXPECT_FALSE(synth::verify_netlist_scalar(n, g, 100, r2, &why2)) << k.why;
    EXPECT_EQ(why1, k.why);
    EXPECT_EQ(why2, k.why);
  }
}

TEST(PackedVerify, RecordsLaneCounters) {
  if (!obs::compiled_in()) GTEST_SKIP() << "stat hooks are compiled out";
  Rng graph_rng(12);
  const auto g = dfg::random_graph(graph_rng);
  const auto flow = synth::run_flow(g, Flow::NewMerge);
  obs::Histogram& hist =
      obs::Registry::instance().histogram("packed_sim.lanes_per_batch");
  const std::int64_t before = hist.count();
  obs::StatSink sink;
  {
    obs::StatScope scope(&sink);
    Rng rng(3);
    std::string why;
    ASSERT_TRUE(synth::verify_netlist(flow.net, g, 100, rng, &why)) << why;
  }
  // The two corner patterns plus 100 trials, in batches of 64 and 38.
  EXPECT_EQ(sink.get("verify.lanes"), 102);
  EXPECT_EQ(sink.get("verify.batches"), 2);
  EXPECT_EQ(sink.get("packed_sim.lanes_used"), 102);
  EXPECT_EQ(sink.get("packed_sim.batches"), 2);
  EXPECT_EQ(hist.count() - before, 2);
}

}  // namespace
}  // namespace dpmerge
