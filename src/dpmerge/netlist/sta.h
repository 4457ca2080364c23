#pragma once

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
/// so `update_drive_change` walks a worklist ordered by gate index — the
/// netlist's topological order — over exactly that cone and stops where
/// arrivals (and critical-path `from` links) settle. Reader lists are owned
/// here, in CSR form. Invariants maintained between calls:
///   - `load_[n]`    == sum of reader-pin input caps of net n
///   - `arrival_[n]` == Sta::analyze arrival of net n
///   - `from_[n]`    == latest-arriving input of n's driver (ties broken
///                      identically to Sta::analyze: last input wins)
/// Any structural edit (adding gates, `Netlist::insert_buffer`) invalidates
/// the state; call `rebuild()` afterwards — one linear pass, no sort.
class IncrementalSta {
 public:
  IncrementalSta(const Netlist& n, const CellLibrary& lib);

  /// Recomputes everything from scratch (use after topology changes).
  void rebuild();

  /// Call after changing gate `g`'s drive. Recomputes the loads of `g`'s
  /// input nets from their reader lists and re-propagates arrivals over
  /// the affected forward cone only.
  void update_drive_change(GateId g);

  double longest_path_ns() const { return longest_; }
  double arrival(NetId n) const {
    return arrival_[static_cast<std::size_t>(n.value)];
  }
  const std::vector<double>& arrivals() const { return arrival_; }
  double load(NetId n) const {
    return load_[static_cast<std::size_t>(n.value)];
  }

  /// Critical path traced on demand from the latest-arriving output bit.
  std::vector<NetId> critical_path() const;

  /// Full report in the `Sta::analyze` format.
  TimingReport report() const;

 private:
  void recompute_gate(int gate_idx);
  void refresh_longest();
  /// Reader gate indices of net `n`, one per reading pin, in gate order.
  std::span<const int> readers(NetId n) const {
    const auto ni = static_cast<std::size_t>(n.value);
    return {reader_.data() + reader_start_[ni],
            reader_.data() + reader_start_[ni + 1]};
  }

  const Netlist& net_;
  const CellLibrary& lib_;
  std::vector<int> reader_start_;            // per net + 1: CSR offsets
  std::vector<int> reader_;                  // reader gate idxs, by net
  std::vector<double> arrival_;              // per net
  std::vector<double> load_;                 // per net
  std::vector<NetId> from_;                  // per net: critical predecessor
  std::vector<NetId> output_bits_;
  double longest_ = 0.0;
  NetId longest_net_{};

  // Worklist scratch (persisted to avoid reallocation per update).
  std::vector<char> queued_;  // per gate
};

}  // namespace dpmerge::netlist
