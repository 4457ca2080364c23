#include "dpmerge/netlist/sta.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "dpmerge/obs/obs.h"

namespace dpmerge::netlist {

namespace {

/// Spare capacity for an array of `n` elements: a sixteenth, at least 64.
/// Buffer splices append one net and a few reader entries at a time, and
/// the undo log grows to the largest cone seen. Doubling these arrays
/// would outweigh the netlist they time, and reallocating them on every
/// splice would fragment the heap.
std::size_t headroom(std::size_t n) {
  return std::max<std::size_t>(n / 16, 64);
}

/// Makes room for `extra` more elements of `v`, plus headroom.
template <class T>
void reserve_for(std::vector<T>& v, std::size_t extra) {
  if (v.size() + extra > v.capacity()) {
    v.reserve(v.size() + extra + headroom(v.size()));
  }
}

}  // namespace

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

  // Reader lists: the readers of net n are reader_[reader_begin_[n] ..
  // reader_end_[n]), one entry per reading pin, in gate order; here the
  // slices are packed in net order. Loads accumulate in the same gate order
  // as Sta::net_loads, so per-net sums are bit-identical (FP addition
  // order). Per-net arrays get headroom for the nets splices add.
  const std::size_t net_room = nets + headroom(nets);
  reader_begin_.reserve(net_room);
  reader_end_.reserve(net_room);
  load_.reserve(net_room);
  arrival_.reserve(net_room);
  from_.reserve(net_room);
  reader_begin_.assign(nets, 0);
  reader_end_.assign(nets, 0);
  load_.assign(nets, 0.0);
  for (const Gate& g : gates) {
    const double cap = lib_.variant(g.type, g.drive).input_cap;
    for (NetId in : g.inputs) {
      ++reader_end_[static_cast<std::size_t>(in.value)];
      load_[static_cast<std::size_t>(in.value)] += cap;
    }
  }
  int total = 0;
  for (std::size_t ni = 0; ni < nets; ++ni) {
    reader_begin_[ni] = total;
    total += reader_end_[ni];
    reader_end_[ni] = reader_begin_[ni];  // fill cursor for the next sweep
  }
  reader_.reserve(static_cast<std::size_t>(total) +
                  headroom(static_cast<std::size_t>(total)));
  reader_.resize(static_cast<std::size_t>(total));

  // Second sweep: place readers, and compute arrivals — loads are final and
  // every gate's inputs are driven by earlier gates.
  arrival_.assign(nets, 0.0);
  from_.assign(nets, NetId{});
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    for (NetId in : gates[gi].inputs) {
      reader_[static_cast<std::size_t>(
          reader_end_[static_cast<std::size_t>(in.value)]++)] =
          static_cast<int>(gi);
    }
    recompute_gate(static_cast<int>(gi));
  }

  output_bits_.clear();
  for (const Bus& b : net_.outputs()) {
    for (NetId bit : b.signal.bits) output_bits_.push_back(bit);
  }
  refresh_longest();

  dirty_.assign((gates.size() + 63) / 64, 0);
  pending_ = 0;
  can_rollback_ = false;
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

double IncrementalSta::reader_load(NetId n) const {
  double l = 0.0;
  // One reader entry per reading *pin*, in full-pass accumulation order.
  for (int reader : readers(n)) {
    const Gate& r = net_.gates()[static_cast<std::size_t>(reader)];
    l += lib_.variant(r.type, r.drive).input_cap;
  }
  return l;
}

void IncrementalSta::mark(int gate_idx) {
  std::uint64_t& word = dirty_[static_cast<std::size_t>(gate_idx) >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (gate_idx & 63);
  if (!(word & bit)) {
    word |= bit;
    ++pending_;
  }
}

int IncrementalSta::propagate(int lowest) {
  // Readers always sit after their driver, so a gate marked while the scan
  // is at gate gi lies above gi: ascending order is dependency order, as
  // the min-heap this replaces guaranteed, and each gate is visited once.
  int cone_gates = 0;
  for (std::size_t w = static_cast<std::size_t>(lowest) >> 6; pending_ > 0;
       ++w) {
    while (dirty_[w] != 0) {
      const int gi =
          static_cast<int>(w << 6) + std::countr_zero(dirty_[w]);
      dirty_[w] &= dirty_[w] - 1;  // clear the lowest set bit
      --pending_;
      ++cone_gates;
      const NetId out = net_.gates()[static_cast<std::size_t>(gi)].output;
      const auto oi = static_cast<std::size_t>(out.value);
      const double before = arrival_[oi];
      const NetId before_from = from_[oi];
      recompute_gate(gi);
      if (arrival_[oi] != before || from_[oi] != before_from) {
        reserve_for(undo_nets_, 1);
        undo_nets_.push_back({before, out.value, before_from});
      }
      if (arrival_[oi] != before) {
        for (int reader : readers(out)) mark(reader);
      }
    }
  }
  return cone_gates;
}

void IncrementalSta::update_drive_change(GateId g) {
  const Gate& gate = net_.gates()[static_cast<std::size_t>(g.value)];
  undo_nets_.clear();
  undo_loads_.clear();
  undo_longest_ = longest_;
  undo_longest_net_ = longest_net_;

  // The resized gate's input pins changed capacitance: recompute those
  // nets' loads from their reader lists (same accumulation order as a full
  // pass, so no delta drift) and seed the worklist with their drivers,
  // whose delays depend on those loads.
  int lowest = g.value;
  for (NetId in : gate.inputs) {
    const std::size_t ni = static_cast<std::size_t>(in.value);
    undo_loads_.push_back({in.value, load_[ni]});
    load_[ni] = reader_load(in);
    if (const Gate* drv = net_.driver(in)) {
      const int d = net_.id_of(*drv).value;
      mark(d);
      lowest = std::min(lowest, d);
    }
  }
  // The gate itself: its drive resistance changed.
  mark(g.value);

  const int cone_gates = propagate(lowest);
  can_rollback_ = true;

  if (obs::StatSink* sink = obs::current_sink()) {
    sink->add("sta.incremental_updates");
    sink->add("sta.incremental_cone_gates", cone_gates);
    sink->set_max("sta.incremental_max_cone", cone_gates);
  }

  refresh_longest();
}

void IncrementalSta::rollback() {
  if (!can_rollback_) {
    throw std::logic_error("IncrementalSta::rollback: no update to undo");
  }
  // Newest first, so a net logged twice (a gate reading it on two pins)
  // ends at its oldest value.
  for (auto it = undo_nets_.rbegin(); it != undo_nets_.rend(); ++it) {
    arrival_[static_cast<std::size_t>(it->net)] = it->arrival;
    from_[static_cast<std::size_t>(it->net)] = it->from;
  }
  for (auto it = undo_loads_.rbegin(); it != undo_loads_.rend(); ++it) {
    load_[static_cast<std::size_t>(it->net)] = it->load;
  }
  longest_ = undo_longest_;
  longest_net_ = undo_longest_net_;
  can_rollback_ = false;
  obs::stat_add("sta.incremental_rollbacks");
}

void IncrementalSta::buffer_inserted(NetId net) {
  const std::vector<Gate>& gates = net_.gates();
  const Gate* drv = net_.driver(net);
  const int drv_id = drv ? net_.id_of(*drv).value : -1;
  const int pos = drv_id + 1;
  const NetId buffered =
      static_cast<std::size_t>(pos) < gates.size()
          ? gates[static_cast<std::size_t>(pos)].output
          : NetId{};
  if (!buffered.valid() ||
      gates[static_cast<std::size_t>(pos)].type != CellType::BUF ||
      gates[static_cast<std::size_t>(pos)].inputs[0] != net ||
      static_cast<std::size_t>(buffered.value) != arrival_.size() ||
      static_cast<std::size_t>(net_.net_count()) != arrival_.size() + 1) {
    throw std::logic_error("IncrementalSta::buffer_inserted: no new buffer "
                           "on net " + std::to_string(net.value));
  }
  can_rollback_ = false;

  // The new net: no state yet; its arrival is computed below.
  reserve_for(arrival_, 1);
  reserve_for(load_, 1);
  reserve_for(from_, 1);
  reserve_for(reader_begin_, 1);
  reserve_for(reader_end_, 1);
  arrival_.push_back(0.0);
  load_.push_back(0.0);
  from_.push_back(NetId{});
  reader_begin_.push_back(0);
  reader_end_.push_back(0);
  dirty_.resize((gates.size() + 63) / 64, 0);

  // Every gate from `pos` on moved up one slot.
  for (int& r : reader_) r += static_cast<int>(r >= pos);

  // Sort the old readers of `net` into the pins that stayed and the pins
  // insert_buffer moved to `buffered`. A gate reading `net` on several
  // pins has that many consecutive entries; visit it once.
  const auto ni = static_cast<std::size_t>(net.value);
  const auto bi = static_cast<std::size_t>(buffered.value);
  moved_.clear();
  kept_.clear();
  int prev = -1;
  for (int r : readers(net)) {
    if (r == prev) continue;
    prev = r;
    for (NetId in : gates[static_cast<std::size_t>(r)].inputs) {
      if (in == net) kept_.push_back(r);
      if (in == buffered) moved_.push_back(r);
    }
  }

  // `net` is now read by the buffer, first in gate order, then the kept
  // pins; the slice shrinks in place unless nothing moved.
  reserve_for(reader_, kept_.size() + 1 + moved_.size());
  const int old_size = reader_end_[ni] - reader_begin_[ni];
  if (static_cast<int>(kept_.size()) + 1 > old_size) {
    reader_begin_[ni] = static_cast<int>(reader_.size());
    reader_.resize(reader_.size() + kept_.size() + 1);
  }
  int* out = reader_.data() + reader_begin_[ni];
  *out++ = pos;
  out = std::copy(kept_.begin(), kept_.end(), out);
  reader_end_[ni] = static_cast<int>(out - reader_.data());

  reader_begin_[bi] = static_cast<int>(reader_.size());
  reader_.insert(reader_.end(), moved_.begin(), moved_.end());
  reader_end_[bi] = static_cast<int>(reader_.size());

  load_[ni] = reader_load(net);
  load_[bi] = reader_load(buffered);

  // The driver's delay saw the load change, the buffer is new, and the
  // moved readers read a new net.
  if (drv) mark(drv_id);
  mark(pos);
  for (int r : moved_) mark(r);
  undo_nets_.clear();
  propagate(drv ? drv_id : pos);
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
