#include "dpmerge/netlist/sta.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "dpmerge/obs/obs.h"

namespace dpmerge::netlist {

std::vector<double> Sta::net_loads(const Netlist& n) const {
  std::vector<double> load(static_cast<std::size_t>(n.net_count()), 0.0);
  for (const Gate& g : n.gates()) {
    for (NetId in : g.inputs) {
      load[static_cast<std::size_t>(in.value)] +=
          lib_.variant(g.type, g.drive).input_cap;
    }
  }
  return load;
}

TimingReport Sta::analyze(const Netlist& n) const {
  obs::Span span("sta.analyze");
  obs::stat_add("sta.full_runs");
  obs::stat_add("sta.full_gates", n.gate_count());
  TimingReport rep;
  rep.arrival.assign(static_cast<std::size_t>(n.net_count()), 0.0);
  std::vector<NetId> from(static_cast<std::size_t>(n.net_count()), NetId{});

  const std::vector<double> load = net_loads(n);

  for (const Gate& g : n.gates()) {  // gate order is topological order
    const CellVariant& v = lib_.variant(g.type, g.drive);
    const double d =
        v.intrinsic_ns +
        v.drive_res_ns * load[static_cast<std::size_t>(g.output.value)];
    double worst = 0.0;
    NetId worst_in{};
    for (NetId in : g.inputs) {
      const double a = rep.arrival[static_cast<std::size_t>(in.value)];
      if (a >= worst) {
        worst = a;
        worst_in = in;
      }
    }
    rep.arrival[static_cast<std::size_t>(g.output.value)] = worst + d;
    from[static_cast<std::size_t>(g.output.value)] = worst_in;
  }

  NetId worst_net{};
  for (const Bus& b : n.outputs()) {
    for (NetId bit : b.signal.bits) {
      const double a = rep.arrival[static_cast<std::size_t>(bit.value)];
      if (a > rep.longest_path_ns) {
        rep.longest_path_ns = a;
        worst_net = bit;
      }
    }
  }

  // Trace the critical path back to its source.
  std::vector<NetId> path;
  for (NetId cur = worst_net; cur.valid(); cur = from[static_cast<std::size_t>(cur.value)]) {
    path.push_back(cur);
    if (!n.driver(cur)) break;
  }
  std::reverse(path.begin(), path.end());
  rep.critical_path = std::move(path);
  return rep;
}

double Sta::area(const Netlist& n) const {
  // Summed in gate creation order — ascending output net, as every gate's
  // output net is created with it — so the total, to the last bit, does not
  // depend on where Netlist::insert_buffer placed its buffers.
  double a = 0.0;
  for (int net = 0; net < n.net_count(); ++net) {
    if (const Gate* g = n.driver(NetId{net})) {
      a += lib_.variant(g->type, g->drive).area;
    }
  }
  return a;
}

IncrementalSta::IncrementalSta(const Netlist& n, const CellLibrary& lib)
    : net_(n), lib_(lib) {
  rebuild();
}

void IncrementalSta::rebuild() {
  const std::size_t nets = static_cast<std::size_t>(net_.net_count());
  const std::vector<Gate>& gates = net_.gates();

  // Reader lists in CSR form: the readers of net n are
  // reader_[reader_start_[n] .. reader_start_[n + 1]), one entry per
  // reading pin, in gate order. Loads accumulate in the same gate order as
  // Sta::net_loads, so per-net sums are bit-identical (FP addition order).
  reader_start_.assign(nets + 1, 0);
  load_.assign(nets, 0.0);
  for (const Gate& g : gates) {
    const double cap = lib_.variant(g.type, g.drive).input_cap;
    for (NetId in : g.inputs) {
      ++reader_start_[static_cast<std::size_t>(in.value) + 1];
      load_[static_cast<std::size_t>(in.value)] += cap;
    }
  }
  for (std::size_t ni = 0; ni < nets; ++ni) {
    reader_start_[ni + 1] += reader_start_[ni];
  }
  reader_.resize(static_cast<std::size_t>(reader_start_[nets]));

  // Second sweep: place readers, and compute arrivals — loads are final and
  // every gate's inputs are driven by earlier gates.
  std::vector<int> cursor(reader_start_.begin(), reader_start_.end() - 1);
  arrival_.assign(nets, 0.0);
  from_.assign(nets, NetId{});
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    for (NetId in : gates[gi].inputs) {
      reader_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(in.value)]++)] = static_cast<int>(gi);
    }
    recompute_gate(static_cast<int>(gi));
  }

  output_bits_.clear();
  for (const Bus& b : net_.outputs()) {
    for (NetId bit : b.signal.bits) output_bits_.push_back(bit);
  }
  refresh_longest();

  queued_.assign(gates.size(), 0);
}

void IncrementalSta::recompute_gate(int gate_idx) {
  const Gate& g = net_.gates()[static_cast<std::size_t>(gate_idx)];
  const CellVariant& v = lib_.variant(g.type, g.drive);
  const double d =
      v.intrinsic_ns +
      v.drive_res_ns * load_[static_cast<std::size_t>(g.output.value)];
  double worst = 0.0;
  NetId worst_in{};
  for (NetId in : g.inputs) {
    const double a = arrival_[static_cast<std::size_t>(in.value)];
    if (a >= worst) {  // same tie-break as Sta::analyze: last input wins
      worst = a;
      worst_in = in;
    }
  }
  arrival_[static_cast<std::size_t>(g.output.value)] = worst + d;
  from_[static_cast<std::size_t>(g.output.value)] = worst_in;
}

void IncrementalSta::refresh_longest() {
  longest_ = 0.0;
  longest_net_ = NetId{};
  for (NetId bit : output_bits_) {
    const double a = arrival_[static_cast<std::size_t>(bit.value)];
    if (a > longest_) {
      longest_ = a;
      longest_net_ = bit;
    }
  }
}

void IncrementalSta::update_drive_change(GateId g) {
  const Gate& gate = net_.gates()[static_cast<std::size_t>(g.value)];

  // Min-heap over gate indices — a gate's index is its topological
  // position — so cone gates are re-evaluated in dependency order (each
  // gate at most once per update).
  std::priority_queue<int, std::vector<int>, std::greater<int>> pq;
  auto enqueue = [&](int gate_idx) {
    if (!queued_[static_cast<std::size_t>(gate_idx)]) {
      queued_[static_cast<std::size_t>(gate_idx)] = 1;
      pq.push(gate_idx);
    }
  };

  // The resized gate's input pins changed capacitance: recompute those
  // nets' loads from their reader lists (same accumulation order as a full
  // pass, so no delta drift) and reseed the worklist with their drivers,
  // whose delays depend on those loads.
  for (NetId in : gate.inputs) {
    const std::size_t ni = static_cast<std::size_t>(in.value);
    double l = 0.0;
    // One reader entry per reading *pin*, in full-pass accumulation order.
    for (int reader : readers(in)) {
      const Gate& r = net_.gates()[static_cast<std::size_t>(reader)];
      l += lib_.variant(r.type, r.drive).input_cap;
    }
    load_[ni] = l;
    if (const Gate* drv = net_.driver(in)) enqueue(drv->id.value);
  }
  // The gate itself: its drive resistance changed.
  enqueue(g.value);

  int cone_gates = 0;
  while (!pq.empty()) {
    const int gi = pq.top();
    pq.pop();
    queued_[static_cast<std::size_t>(gi)] = 0;
    ++cone_gates;
    const NetId out = net_.gates()[static_cast<std::size_t>(gi)].output;
    const double before = arrival_[static_cast<std::size_t>(out.value)];
    recompute_gate(gi);
    if (arrival_[static_cast<std::size_t>(out.value)] != before) {
      for (int reader : readers(out)) enqueue(reader);
    }
  }

  if (obs::StatSink* sink = obs::current_sink()) {
    sink->add("sta.incremental_updates");
    sink->add("sta.incremental_cone_gates", cone_gates);
    sink->set_max("sta.incremental_max_cone", cone_gates);
  }

  refresh_longest();
}

std::vector<NetId> IncrementalSta::critical_path() const {
  std::vector<NetId> path;
  for (NetId cur = longest_net_; cur.valid();
       cur = from_[static_cast<std::size_t>(cur.value)]) {
    path.push_back(cur);
    if (!net_.driver(cur)) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

TimingReport IncrementalSta::report() const {
  TimingReport rep;
  rep.longest_path_ns = longest_;
  rep.arrival = arrival_;
  rep.critical_path = critical_path();
  return rep;
}

}  // namespace dpmerge::netlist
