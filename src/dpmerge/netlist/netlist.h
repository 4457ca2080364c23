#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "dpmerge/netlist/cell.h"
#include "dpmerge/support/bitvector.h"
#include "dpmerge/support/sign.h"

namespace dpmerge::netlist {

struct NetId {
  int value = -1;
  bool valid() const { return value >= 0; }
  auto operator<=>(const NetId&) const = default;
};

struct GateId {
  int value = -1;
  auto operator<=>(const GateId&) const = default;
};

/// A gate's input pins, held inline: no library cell has more than `kMax`
/// inputs, so a gate needs no heap allocation of its own.
class Pins {
 public:
  static constexpr int kMax = 3;

  Pins() = default;
  /// Throws std::invalid_argument for more than `kMax` pins.
  Pins(std::initializer_list<NetId> pins) {
    if (pins.size() > kMax) throw_too_many(pins.size());
    for (NetId n : pins) pin_[count_++] = n;
  }

  std::size_t size() const { return count_; }
  NetId& operator[](std::size_t i) { return pin_[i]; }
  const NetId& operator[](std::size_t i) const { return pin_[i]; }
  NetId* begin() { return pin_.data(); }
  NetId* end() { return pin_.data() + count_; }
  const NetId* begin() const { return pin_.data(); }
  const NetId* end() const { return pin_.data() + count_; }
  /// Throws std::invalid_argument when all `kMax` pins are in use.
  void push_back(NetId n) {
    if (count_ == kMax) throw_too_many(kMax + 1);
    pin_[count_++] = n;
  }

 private:
  [[noreturn]] static void throw_too_many(std::size_t pins);

  std::array<NetId, kMax> pin_{};
  std::uint8_t count_ = 0;
};

/// One cell instance. A gate stores no id: its id is its index in
/// `Netlist::gates()` (`Netlist::id_of`), so large netlists pay 24 bytes a
/// gate and inserting a gate renumbers nothing stored in the gates.
struct Gate {
  CellType type = CellType::INV;
  std::uint8_t drive = 0;  ///< drive-strength variant index (0 = X1)
  Pins inputs;
  NetId output;
};
static_assert(sizeof(Gate) <= 24, "Gate is the netlist's unit of memory");

/// A multi-bit signal: nets in LSB-first order. Mirrors BitVector semantics
/// (resize = truncate or replicate the top net / tie to 0).
struct Signal {
  std::vector<NetId> bits;
  int width() const { return static_cast<int>(bits.size()); }
  NetId bit(int i) const { return bits[static_cast<std::size_t>(i)]; }
  NetId msb() const { return bits.back(); }
};

struct Bus {
  std::string name;
  Signal signal;
};

/// Structural gate-level netlist over the cell library, with two designated
/// constant nets (undriven; simulation and timing treat them as stable 0/1
/// with arrival time 0).
///
/// Gate order is topological order: every gate reads only constants, nets
/// no gate drives (primary inputs) and nets driven by earlier gates.
/// Appending keeps it (`add_gate` drives a fresh net; `add_gate_driving`
/// rejects a net an earlier gate reads), and so does `insert_buffer`, the
/// timing optimiser's fanout split. So STA, simulation and the checkers
/// walk `gates()` front to back with no sort. Only direct writes through
/// `mutable_gates()` can break the order; `validate()` reports it.
///
/// Gate construction helpers return the freshly driven output net. The
/// constant-folding helpers (`and2`, `or2`, ...) peephole away gates whose
/// inputs are the constant nets — width adaptation and masked partial
/// products generate many of those.
class Netlist {
 public:
  Netlist();

  NetId new_net();
  NetId const0() const { return NetId{0}; }
  NetId const1() const { return NetId{1}; }
  bool is_const(NetId n) const { return n.value <= 1; }

  /// Raw gate creation (no folding): appends a gate driving a fresh net.
  /// Throws std::invalid_argument, naming the gate, when the pin count does
  /// not match the cell or an input net does not exist.
  NetId add_gate(CellType t, Pins inputs);
  /// Appends a gate driving the existing, undriven net `out`. Besides the
  /// `add_gate` checks, throws std::invalid_argument when `out` is a
  /// constant, already driven, or already read by an earlier gate (driving
  /// it would put a reader before its driver). That last check scans the
  /// gates; `add_gate` needs none of it, as its output net is fresh.
  GateId add_gate_driving(CellType t, Pins inputs, NetId out);

  /// Splits the fanout of `net`: inserts a BUF reading `net` directly after
  /// its driver (at index 0 for a primary input) and moves every reader
  /// pin except those of gate `keep_reader` onto the buffer's output, a
  /// fresh net. Later gates shift one slot, with their drivers and
  /// provenance tags, so the gate order stays topological and every later
  /// gate's id (its index) grows by one. `keep_reader`
  /// is a gate id from before the call; pass GateId{} to rewire every
  /// reader. Output bus bits stay on `net`. Returns the number of reader
  /// pins moved. Throws std::invalid_argument for a constant or
  /// nonexistent net.
  int insert_buffer(NetId net, GateId keep_reader);

  // Folding helpers.
  NetId inv(NetId a);
  NetId buf(NetId a);
  NetId and2(NetId a, NetId b);
  NetId or2(NetId a, NetId b);
  NetId nand2(NetId a, NetId b);
  NetId nor2(NetId a, NetId b);
  NetId xor2(NetId a, NetId b);
  NetId xnor2(NetId a, NetId b);
  NetId mux2(NetId d0, NetId d1, NetId sel);

  /// Full adder from primitive gates: returns {sum, carry}.
  std::pair<NetId, NetId> full_adder(NetId a, NetId b, NetId c);
  /// Half adder: returns {sum, carry}.
  std::pair<NetId, NetId> half_adder(NetId a, NetId b);

  /// Signal-level helpers.
  Signal constant_signal(const BitVector& v);
  Signal resize(const Signal& s, int width, Sign sign);
  Signal invert(const Signal& s);

  // Primary interface buses.
  void add_input(const std::string& name, const Signal& s);
  void add_output(const std::string& name, const Signal& s);
  const std::vector<Bus>& inputs() const { return inputs_; }
  const std::vector<Bus>& outputs() const { return outputs_; }

  const std::vector<Gate>& gates() const { return gates_; }
  std::vector<Gate>& mutable_gates() { return gates_; }
  int gate_count() const { return static_cast<int>(gates_.size()); }
  int net_count() const { return net_count_; }
  /// The id of a gate of this netlist (a reference into `gates()`).
  GateId id_of(const Gate& g) const {
    return GateId{static_cast<int>(&g - gates_.data())};
  }

  /// Reserves room for `gates` gates and `nets` nets in total (constants
  /// included), so building up to that size reallocates nothing. An
  /// over-estimate costs only address space: pages are touched as gates
  /// are written.
  void reserve(std::size_t gates, std::size_t nets);

  // ---- provenance tags (dpmerge::obs) ----
  // Side metadata only: the DFG node whose synthesis created each gate.
  // Never influences structure, simulation, timing or export, and compiles
  // out entirely with -DDPMERGE_OBS=OFF (owner() is then always -1), so
  // netlists are byte-identical with or without provenance.

  /// Sets the owner DFG node id stamped on subsequently created gates
  /// (-1 = untagged). The synthesizer scopes this around each node's turn.
  void set_provenance_owner(int dfg_node) {
#ifndef DPMERGE_OBS_DISABLED
    current_owner_ = dfg_node;
#else
    (void)dfg_node;
#endif
  }

  /// Owner DFG node of a gate, or -1 (untagged / compiled out).
  int provenance_owner(GateId g) const {
#ifndef DPMERGE_OBS_DISABLED
    const auto i = static_cast<std::size_t>(g.value);
    return i < gate_owner_.size() ? gate_owner_[i] : -1;
#else
    (void)g;
    return -1;
#endif
  }

  /// True when at least one gate carries an owner tag.
  bool has_provenance() const {
#ifndef DPMERGE_OBS_DISABLED
    for (int o : gate_owner_) {
      if (o >= 0) return true;
    }
#endif
    return false;
  }

  /// Driver gate of a net, or nullptr for primary inputs / constants.
  const Gate* driver(NetId n) const;

  /// Structural checks over the gates as they stand (edits through
  /// `mutable_gates()` included): all gate inputs driven or primary/
  /// constant, no gate driving a constant net, and the order invariant —
  /// the first forward reference is reported as "gate G reads net N driven
  /// by later gate K". A combinational cycle always contains one.
  std::vector<std::string> validate() const;

 private:
  /// Throws unless a gate of type `t` reading `inputs` may be appended
  /// driving `out` (`NetId{}`: a fresh net).
  void check_new_gate(CellType t, const Pins& inputs, NetId out) const;
  GateId append_gate(CellType t, const Pins& inputs, NetId out);

  int net_count_ = 0;
  std::vector<Gate> gates_;
  std::vector<int> driver_of_;  // net -> gate index, -1 if none
  std::vector<Bus> inputs_;
  std::vector<Bus> outputs_;
#ifndef DPMERGE_OBS_DISABLED
  std::vector<int> gate_owner_;  // parallel to gates_; -1 = untagged
  int current_owner_ = -1;
#endif
};

}  // namespace dpmerge::netlist
