#include "dpmerge/synth/verify.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpmerge/netlist/packed_sim.h"
#include "dpmerge/netlist/sim.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::synth {

using dfg::Graph;
using netlist::Netlist;
using netlist::PackedSimulator;
using netlist::Simulator;

namespace {

/// Name-resolved bus bindings between a DFG and a netlist, computed once
/// per verification run instead of once per trial.
struct Bindings {
  std::vector<dfg::NodeId> g_inputs;
  std::vector<dfg::NodeId> g_outputs;
  /// For net input bus i: index into `g_inputs` supplying its stimulus.
  std::vector<std::size_t> in_of_bus;
  /// For DFG output j: net output bus index, or -1 if the netlist has no
  /// bus of that name (reported as a mismatch, like the scalar oracle).
  std::vector<int> bus_of_out;
};

Bindings resolve(const Netlist& net, const Graph& g) {
  Bindings b;
  b.g_inputs = g.inputs();
  b.g_outputs = g.outputs();

  b.in_of_bus.resize(net.inputs().size());
  for (std::size_t i = 0; i < net.inputs().size(); ++i) {
    bool found = false;
    for (std::size_t k = 0; k < b.g_inputs.size(); ++k) {
      if (g.name(b.g_inputs[k]) == net.inputs()[i].name) {
        b.in_of_bus[i] = k;
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument("missing stimulus for input '" +
                                  net.inputs()[i].name + "'");
    }
  }

  b.bus_of_out.assign(b.g_outputs.size(), -1);
  for (std::size_t j = 0; j < b.g_outputs.size(); ++j) {
    const std::string& name = g.name(b.g_outputs[j]);
    for (std::size_t i = 0; i < net.outputs().size(); ++i) {
      if (net.outputs()[i].name == name) {
        b.bus_of_out[j] = static_cast<int>(i);
        break;
      }
    }
  }
  return b;
}

void fill_mismatch(const Graph& g, const Bindings& bind, std::size_t out_idx,
                   const BitVector& expect, const BitVector* got,
                   std::string* why) {
  if (!why) return;
  std::ostringstream os;
  os << "output '" << g.name(bind.g_outputs[out_idx])
     << "': dfg=" << expect.to_string() << " netlist="
     << (got ? got->to_string() : std::string("<missing>"));
  *why = os.str();
}

/// The corner patterns every run starts with: all-zeros and all-ones.
std::vector<std::vector<BitVector>> corner_stimuli(const Graph& g,
                                                   const Bindings& bind) {
  std::vector<BitVector> zeros, ones;
  for (dfg::NodeId id : bind.g_inputs) {
    BitVector z(g.node(id).width);
    zeros.push_back(z);
    ones.push_back(z.bit_not());
  }
  return {std::move(zeros), std::move(ones)};
}

}  // namespace

bool verify_netlist(const Netlist& net, const Graph& g, int trials, Rng& rng,
                    std::string* why) {
  obs::Span span("verify.netlist");
  const dfg::Evaluator ev(g);
  const PackedSimulator sim(net);
  const Bindings bind = resolve(net, g);
  constexpr int kLanes = PackedSimulator::kLanes;

  // Lane L evaluates the DFG in its own arena; the netlist sees the lanes
  // transposed into one word per input bit.
  const std::size_t stride = ev.arena_words();
  std::vector<std::uint64_t> arenas(stride * kLanes);
  auto lane = [&](int L) {
    return arenas.data() + stride * static_cast<std::size_t>(L);
  };
  std::vector<PackedSimulator::PackedBus> packed(net.inputs().size());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    const dfg::Evaluator::Slot s = ev.input_slots()[bind.in_of_bus[i]];
    if (net.inputs()[i].signal.width() != s.width) {
      throw std::invalid_argument("stimulus width mismatch for '" +
                                  net.inputs()[i].name + "'");
    }
    packed[i].resize(static_cast<std::size_t>(s.width));
  }

  // Checks lanes [0, lanes): one packed netlist sweep, one compiled DFG
  // run per lane, outputs compared bit by bit in lane order.
  auto check_batch = [&](int lanes) -> bool {
    obs::stat_add("verify.batches");
    obs::stat_add("verify.lanes", lanes);
    PackedSimulator::record_batch(lanes);
    for (int L = 0; L < lanes; ++L) ev.run_words({lane(L), stride});
    for (std::size_t i = 0; i < packed.size(); ++i) {
      const int offset = ev.input_slots()[bind.in_of_bus[i]].offset;
      for (std::size_t b = 0; b < packed[i].size(); ++b) {
        std::uint64_t word = 0;
        for (int L = 0; L < lanes; ++L) {
          word |= static_cast<std::uint64_t>(
                      words::bit(lane(L) + offset, static_cast<int>(b)))
                  << L;
        }
        packed[i][b] = word;
      }
    }
    const auto got = sim.run(packed);
    for (int L = 0; L < lanes; ++L) {
      for (std::size_t j = 0; j < bind.g_outputs.size(); ++j) {
        const dfg::Evaluator::Slot s = ev.output_slots()[j];
        const std::uint64_t* expect = lane(L) + s.offset;
        const int bus = bind.bus_of_out[j];
        const PackedSimulator::PackedBus* bits =
            bus >= 0 ? &got[static_cast<std::size_t>(bus)] : nullptr;
        bool same = bits && static_cast<int>(bits->size()) == s.width;
        for (int b = 0; same && b < s.width; ++b) {
          same = (((*bits)[static_cast<std::size_t>(b)] >> L) & 1u) ==
                 static_cast<std::uint64_t>(words::bit(expect, b));
        }
        if (same) continue;
        if (why) {
          std::optional<BitVector> v;
          if (bits) {
            v.emplace(static_cast<int>(bits->size()));
            for (std::size_t b = 0; b < bits->size(); ++b) {
              v->set_bit(static_cast<int>(b), ((*bits)[b] >> L) & 1u);
            }
          }
          fill_mismatch(g, bind, j, BitVector::from_words(s.width, expect),
                        v ? &*v : nullptr, why);
        }
        return false;
      }
    }
    return true;
  };

  // The corner patterns every run starts with, all-zeros and all-ones,
  // then `trials` random stimuli drawn straight into the lanes' input
  // slots in `g.inputs()` order: the same stream `random_inputs` draws.
  for (const dfg::Evaluator::Slot s : ev.input_slots()) {
    const auto n = static_cast<std::size_t>(words::count(s.width));
    std::fill_n(lane(0) + s.offset, n, 0);
    std::fill_n(lane(1) + s.offset, n, ~std::uint64_t{0});
    words::normalize(lane(1) + s.offset, s.width);
  }
  int lanes = 2;
  int done = 0;
  for (;;) {
    for (; done < trials && lanes < kLanes; ++done, ++lanes) {
      for (const dfg::Evaluator::Slot s : ev.input_slots()) {
        rng.fill_bits(lane(lanes) + s.offset, s.width);
      }
    }
    if (lanes == 0) break;
    if (!check_batch(lanes)) return false;
    lanes = 0;
    if (done == trials) break;
  }
  return true;
}

bool verify_netlist_scalar(const Netlist& net, const Graph& g, int trials,
                           Rng& rng, std::string* why) {
  obs::Span span("verify.netlist_scalar");
  dfg::Evaluator ev(g);
  Simulator sim(net);
  const Bindings bind = resolve(net, g);

  auto check = [&](const std::vector<BitVector>& stim) -> bool {
    std::vector<BitVector> bus_stim;
    bus_stim.reserve(bind.in_of_bus.size());
    for (std::size_t pos : bind.in_of_bus) bus_stim.push_back(stim[pos]);
    const auto expect = ev.run_outputs(stim);
    const auto got = sim.run(bus_stim);
    for (std::size_t j = 0; j < bind.g_outputs.size(); ++j) {
      const int bus = bind.bus_of_out[j];
      const BitVector* v =
          bus >= 0 ? &got[static_cast<std::size_t>(bus)] : nullptr;
      if (!v || *v != expect[j]) {
        fill_mismatch(g, bind, j, expect[j], v, why);
        return false;
      }
    }
    return true;
  };

  for (const auto& stim : corner_stimuli(g, bind)) {
    if (!check(stim)) return false;
  }
  for (int t = 0; t < trials; ++t) {
    if (!check(ev.random_inputs(rng))) return false;
  }
  return true;
}

}  // namespace dpmerge::synth
