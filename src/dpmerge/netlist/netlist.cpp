#include "dpmerge/netlist/netlist.h"

#include <stdexcept>

namespace dpmerge::netlist {

void Pins::throw_too_many(std::size_t pins) {
  throw std::invalid_argument("a gate has at most " + std::to_string(kMax) +
                              " input pins, got " + std::to_string(pins));
}

Netlist::Netlist() {
  new_net();  // net 0: constant 0
  new_net();  // net 1: constant 1
}

NetId Netlist::new_net() {
  driver_of_.push_back(-1);
  return NetId{net_count_++};
}

NetId Netlist::add_gate(CellType t, Pins inputs) {
  check_new_gate(t, inputs, NetId{});
  const NetId out = new_net();
  append_gate(t, inputs, out);
  return out;
}

void Netlist::check_new_gate(CellType t, const Pins& inputs, NetId out) const {
  auto at = [&] {
    return "gate " + std::to_string(gates_.size()) + " (" +
           std::string(to_string(t)) + ")";
  };
  const int want = cell_input_count(t);
  if (static_cast<int>(inputs.size()) != want) {
    throw std::invalid_argument(at() + ": expects " + std::to_string(want) +
                                " input pin(s), got " +
                                std::to_string(inputs.size()));
  }
  for (std::size_t pin = 0; pin < inputs.size(); ++pin) {
    const NetId in = inputs[pin];
    if (in.value < 0 || in.value >= net_count_) {
      throw std::invalid_argument(at() + " pin " + std::to_string(pin) +
                                  ": net " + std::to_string(in.value) +
                                  " does not exist");
    }
    if (in == out) {
      throw std::invalid_argument(at() + " pin " + std::to_string(pin) +
                                  " reads its own output net " +
                                  std::to_string(in.value));
    }
  }
  if (!out.valid()) return;  // add_gate: the output is a fresh net
  if (out.value >= net_count_) {
    throw std::invalid_argument(at() + ": output net " +
                                std::to_string(out.value) + " does not exist");
  }
  if (is_const(out)) {
    throw std::invalid_argument(at() + ": drives constant net " +
                                std::to_string(out.value));
  }
  const int drv = driver_of_[static_cast<std::size_t>(out.value)];
  if (drv >= 0) {
    throw std::invalid_argument(at() + ": net " + std::to_string(out.value) +
                                " is already driven by gate " +
                                std::to_string(drv));
  }
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    for (NetId in : gates_[gi].inputs) {
      if (in == out) {
        throw std::invalid_argument(
            at() + ": net " + std::to_string(out.value) +
            " is already read by earlier gate " + std::to_string(gi) +
            "; gates must be added in topological order");
      }
    }
  }
}

GateId Netlist::add_gate_driving(CellType t, Pins inputs, NetId out) {
  check_new_gate(t, inputs, out);
  return append_gate(t, inputs, out);
}

void Netlist::reserve(std::size_t gates, std::size_t nets) {
  gates_.reserve(gates);
  driver_of_.reserve(nets);
#ifndef DPMERGE_OBS_DISABLED
  gate_owner_.reserve(gates);
#endif
}

GateId Netlist::append_gate(CellType t, const Pins& inputs, NetId out) {
  const GateId id{static_cast<int>(gates_.size())};
  driver_of_[static_cast<std::size_t>(out.value)] = id.value;
  gates_.push_back(Gate{t, 0, inputs, out});
#ifndef DPMERGE_OBS_DISABLED
  gate_owner_.push_back(current_owner_);
#endif
  return id;
}

int Netlist::insert_buffer(NetId net, GateId keep_reader) {
  if (net.value < 0 || net.value >= net_count_ || is_const(net)) {
    throw std::invalid_argument("insert_buffer: net " +
                                std::to_string(net.value) +
                                " is not a bufferable net");
  }
  const int drv = driver_of_[static_cast<std::size_t>(net.value)];
  const int pos = drv >= 0 ? drv + 1 : 0;
  const NetId buffered = new_net();

  gates_.insert(gates_.begin() + pos, Gate{CellType::BUF, 0, {net}, buffered});
#ifndef DPMERGE_OBS_DISABLED
  gate_owner_.insert(gate_owner_.begin() + pos, current_owner_);
#endif
  driver_of_[static_cast<std::size_t>(buffered.value)] = pos;

  // Every reader of `net` follows its driver, so one sweep over the shifted
  // tail moves the drivers and finds all the pins to rewire. The gate now
  // at index i had id i - 1 before the call.
  int rewired = 0;
  for (std::size_t i = static_cast<std::size_t>(pos) + 1; i < gates_.size();
       ++i) {
    Gate& g = gates_[i];
    driver_of_[static_cast<std::size_t>(g.output.value)] = static_cast<int>(i);
    if (static_cast<int>(i) - 1 == keep_reader.value) continue;
    for (NetId& in : g.inputs) {
      if (in == net) {
        in = buffered;
        ++rewired;
      }
    }
  }
  return rewired;
}

NetId Netlist::inv(NetId a) {
  if (a == const0()) return const1();
  if (a == const1()) return const0();
  return add_gate(CellType::INV, {a});
}

NetId Netlist::buf(NetId a) {
  if (is_const(a)) return a;
  return add_gate(CellType::BUF, {a});
}

NetId Netlist::and2(NetId a, NetId b) {
  if (a == const0() || b == const0()) return const0();
  if (a == const1()) return b;
  if (b == const1()) return a;
  if (a == b) return a;
  return add_gate(CellType::AND2, {a, b});
}

NetId Netlist::or2(NetId a, NetId b) {
  if (a == const1() || b == const1()) return const1();
  if (a == const0()) return b;
  if (b == const0()) return a;
  if (a == b) return a;
  return add_gate(CellType::OR2, {a, b});
}

NetId Netlist::nand2(NetId a, NetId b) {
  if (a == const0() || b == const0()) return const1();
  if (a == const1()) return inv(b);
  if (b == const1()) return inv(a);
  return add_gate(CellType::NAND2, {a, b});
}

NetId Netlist::nor2(NetId a, NetId b) {
  if (a == const1() || b == const1()) return const0();
  if (a == const0()) return inv(b);
  if (b == const0()) return inv(a);
  return add_gate(CellType::NOR2, {a, b});
}

NetId Netlist::xor2(NetId a, NetId b) {
  if (a == const0()) return b;
  if (b == const0()) return a;
  if (a == const1()) return inv(b);
  if (b == const1()) return inv(a);
  if (a == b) return const0();
  return add_gate(CellType::XOR2, {a, b});
}

NetId Netlist::xnor2(NetId a, NetId b) {
  if (a == const0()) return inv(b);
  if (b == const0()) return inv(a);
  if (a == const1()) return b;
  if (b == const1()) return a;
  if (a == b) return const1();
  return add_gate(CellType::XNOR2, {a, b});
}

NetId Netlist::mux2(NetId d0, NetId d1, NetId sel) {
  if (sel == const0()) return d0;
  if (sel == const1()) return d1;
  if (d0 == d1) return d0;
  if (d0 == const0() && d1 == const1()) return sel;
  return add_gate(CellType::MUX2, {d0, d1, sel});
}

std::pair<NetId, NetId> Netlist::full_adder(NetId a, NetId b, NetId c) {
  const NetId ab = xor2(a, b);
  const NetId sum = xor2(ab, c);
  const NetId carry = or2(and2(a, b), and2(ab, c));
  return {sum, carry};
}

std::pair<NetId, NetId> Netlist::half_adder(NetId a, NetId b) {
  return {xor2(a, b), and2(a, b)};
}

Signal Netlist::constant_signal(const BitVector& v) {
  Signal s;
  s.bits.reserve(static_cast<std::size_t>(v.width()));
  for (int i = 0; i < v.width(); ++i) {
    s.bits.push_back(v.bit(i) ? const1() : const0());
  }
  return s;
}

Signal Netlist::resize(const Signal& s, int width, Sign sign) {
  Signal r;
  r.bits.reserve(static_cast<std::size_t>(width));
  const NetId fill =
      (sign == Sign::Signed && s.width() > 0) ? s.msb() : const0();
  for (int i = 0; i < width; ++i) {
    r.bits.push_back(i < s.width() ? s.bit(i) : fill);
  }
  return r;
}

Signal Netlist::invert(const Signal& s) {
  Signal r;
  r.bits.reserve(s.bits.size());
  // Replicated fill nets (from sign extension) get one shared inverter.
  NetId last_in{-1}, last_out{-1};
  for (NetId n : s.bits) {
    if (n == last_in) {
      r.bits.push_back(last_out);
      continue;
    }
    last_in = n;
    last_out = inv(n);
    r.bits.push_back(last_out);
  }
  return r;
}

void Netlist::add_input(const std::string& name, const Signal& s) {
  inputs_.push_back(Bus{name, s});
}

void Netlist::add_output(const std::string& name, const Signal& s) {
  outputs_.push_back(Bus{name, s});
}

const Gate* Netlist::driver(NetId n) const {
  const int g = driver_of_[static_cast<std::size_t>(n.value)];
  return g < 0 ? nullptr : &gates_[static_cast<std::size_t>(g)];
}

std::vector<std::string> Netlist::validate() const {
  std::vector<std::string> errs;
  // Drivers as the gates stand now; `driver_of_` does not see edits made
  // through mutable_gates().
  std::vector<int> drv(static_cast<std::size_t>(net_count_), -1);
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    drv[static_cast<std::size_t>(gates_[gi].output.value)] =
        static_cast<int>(gi);
  }
  std::vector<bool> has_pi(static_cast<std::size_t>(net_count_), false);
  has_pi[0] = has_pi[1] = true;  // constants
  for (const Bus& b : inputs_) {
    for (NetId n : b.signal.bits) {
      has_pi[static_cast<std::size_t>(n.value)] = true;
    }
  }
  bool ordered = true;
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    const Gate& g = gates_[gi];
    for (NetId in : g.inputs) {
      const int d = drv[static_cast<std::size_t>(in.value)];
      if (d < 0 && !has_pi[static_cast<std::size_t>(in.value)]) {
        errs.push_back("gate " + std::to_string(gi) +
                       ": floating input net " + std::to_string(in.value));
      } else if (ordered && d >= static_cast<int>(gi)) {
        ordered = false;
        errs.push_back("gate " + std::to_string(gi) + " reads net " +
                       std::to_string(in.value) + " driven by later gate " +
                       std::to_string(d));
      }
    }
    if (g.output.value <= 1) {
      errs.push_back("gate drives a constant net");
    }
  }
  return errs;
}

}  // namespace dpmerge::netlist
