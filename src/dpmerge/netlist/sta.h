#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dpmerge/netlist/netlist.h"

namespace dpmerge::netlist {

/// Static timing analysis over the linear delay model (cell intrinsic +
/// drive resistance x capacitive load) and the area report. Primary inputs
/// arrive at t = 0, matching the paper's experimental setup ("we set the
/// arrival times at all inputs in each testcase to 0").
struct TimingReport {
  double longest_path_ns = 0.0;
  /// Arrival time per net id.
  std::vector<double> arrival;
  /// Net ids of the critical path, from a primary input to the latest
  /// output, in order.
  std::vector<NetId> critical_path;
};

class Sta {
 public:
  explicit Sta(const CellLibrary& lib) : lib_(lib) {}

  TimingReport analyze(const Netlist& n) const;

  /// Capacitive load per net id (sum of reader-pin input caps), computed in
  /// one pass over the gates. Callers that need several nets' loads must
  /// use this rather than probing nets one at a time.
  std::vector<double> net_loads(const Netlist& n) const;

  /// Total cell area.
  double area(const Netlist& n) const;

  /// Area in the paper's reporting convention (scaled down by 100).
  double area_scaled(const Netlist& n) const { return area(n) / 100.0; }

 private:
  const CellLibrary& lib_;
};

/// Incremental arrival-time maintenance for gate-sizing loops. A full
/// `Sta::analyze` is O(gates) per query; resizing one gate only perturbs
///   (a) the loads of that gate's input nets (its input caps changed), and
///   (b) delays/arrivals in the forward cone of the gate and of its input
///       nets' drivers,
/// so `update_drive_change` re-evaluates exactly that cone and stops where
/// arrivals (and critical-path `from` links) settle. Its worklist is a
/// per-gate dirty bitmap scanned upward from the lowest seed: gate index is
/// topological order and every reader sits after its driver, so the scan
/// meets each cone gate once, after all of its dirty drivers. Reader lists
/// are owned here, one [begin, end) slice of `reader_` per net. Invariants
/// maintained between calls:
///   - `load_[n]`    == sum of reader-pin input caps of net n, accumulated
///                      in gate order (bit-identical to Sta::net_loads)
///   - `arrival_[n]` == Sta::analyze arrival of net n
///   - `from_[n]`    == latest-arriving input of n's driver (ties broken
///                      identically to Sta::analyze: last input wins)
/// Structural edits invalidate the state, except the one the optimiser
/// makes: after `Netlist::insert_buffer` call `buffer_inserted`, which
/// splices the new buffer in and re-propagates its cone.
class IncrementalSta {
 public:
  IncrementalSta(const Netlist& n, const CellLibrary& lib);

  /// Recomputes everything from scratch in two linear sweeps.
  void rebuild();

  /// Call after changing gate `g`'s drive. Recomputes the loads of `g`'s
  /// input nets from their reader lists and re-propagates arrivals over
  /// the affected forward cone only. Logs what it overwrites, so the
  /// update can be undone by `rollback`.
  void update_drive_change(GateId g);

  /// Undoes the last `update_drive_change`: restores the loads, arrivals,
  /// `from` links and longest path it overwrote, in O(cone). Restore the
  /// gate's drive in the netlist first; the state then again describes the
  /// netlist. Throws std::logic_error when there is no update to undo
  /// (nothing since construction, `rebuild`, `buffer_inserted` or the
  /// previous `rollback`).
  void rollback();

  /// Call right after `Netlist::insert_buffer(net, keep_reader)`: shifts
  /// the reader indices behind the buffer, moves the rewired reader pins to
  /// the buffer's output net, recomputes the two nets' loads and
  /// re-propagates from `net`'s driver, the buffer and the moved readers.
  /// The result is bit-identical to `rebuild()`. Throws std::logic_error
  /// when the gate after `net`'s driver is not a fresh buffer on `net`.
  void buffer_inserted(NetId net);

  double longest_path_ns() const { return longest_; }
  double arrival(NetId n) const {
    return arrival_[static_cast<std::size_t>(n.value)];
  }
  const std::vector<double>& arrivals() const { return arrival_; }
  double load(NetId n) const {
    return load_[static_cast<std::size_t>(n.value)];
  }

  /// Reader gate indices of net `n`, one per reading pin, in gate order.
  std::span<const int> readers(NetId n) const {
    const auto ni = static_cast<std::size_t>(n.value);
    return {reader_.data() + reader_begin_[ni],
            reader_.data() + reader_end_[ni]};
  }

  /// Critical path traced on demand from the latest-arriving output bit.
  std::vector<NetId> critical_path() const;

  /// Full report in the `Sta::analyze` format.
  TimingReport report() const;

 private:
  void recompute_gate(int gate_idx);
  void refresh_longest();
  /// Sum of reader-pin input caps of net `n`, in gate order.
  double reader_load(NetId n) const;
  /// Adds a gate to the worklist (once).
  void mark(int gate_idx);
  /// Re-evaluates every marked gate and the cone they reach, in gate
  /// order, starting the scan at gate `lowest` (no marked gate lies below
  /// it). Logs each changed net in `undo_nets_`. Returns the gates visited.
  int propagate(int lowest);

  struct NetUndo {
    double arrival;
    int net;
    NetId from;
  };
  struct LoadUndo {
    int net;
    double load;
  };

  const Netlist& net_;
  const CellLibrary& lib_;
  std::vector<int> reader_begin_;            // per net: slice of reader_
  std::vector<int> reader_end_;              // per net
  std::vector<int> reader_;                  // reader gate idxs, by net
  std::vector<double> arrival_;              // per net
  std::vector<double> load_;                 // per net
  std::vector<NetId> from_;                  // per net: critical predecessor
  std::vector<NetId> output_bits_;
  double longest_ = 0.0;
  NetId longest_net_{};

  // Worklist: one bit per gate, and the number of bits set. Empty between
  // calls.
  std::vector<std::uint64_t> dirty_;
  int pending_ = 0;

  // Undo log of the last update_drive_change. The vectors keep their
  // capacity from update to update.
  std::vector<NetUndo> undo_nets_;
  std::vector<LoadUndo> undo_loads_;
  double undo_longest_ = 0.0;
  NetId undo_longest_net_{};
  bool can_rollback_ = false;

  // buffer_inserted scratch: the rewired and the kept readers of the net.
  std::vector<int> moved_;
  std::vector<int> kept_;
};

}  // namespace dpmerge::netlist
