#pragma once

#include <string>

#include "dpmerge/netlist/netlist.h"
#include "dpmerge/netlist/sta.h"

namespace dpmerge::opt {

/// Timing-driven gate-level optimisation, standing in for the proprietary
/// optimiser of the paper's Table 2 (see DESIGN.md §1): iteratively improves
/// the longest path toward a target delay by
///   (a) upsizing cells on the critical path (X1 -> X2 -> X4), and
///   (b) buffering heavily loaded critical nets.
/// Timing is maintained incrementally (`netlist::IncrementalSta`): a drive
/// change re-propagates arrivals over the affected forward cone only, and a
/// rejected trial is rolled back over the same cone; a buffer move splits
/// the fanout in place (`Netlist::insert_buffer`, which keeps the gate
/// order topological) and is spliced into the timing state. Runtime
/// therefore grows with netlist size and with the distance from the
/// target — the property Table 2 measures (smaller, faster initial netlists
/// need far less optimisation effort).
struct TimingOptOptions {
  double target_ns = 0.0;
  int max_moves = 200000;
  /// Nets with load above this (in cap units) are buffer candidates.
  double buffer_load_threshold = 12.0;
  /// After the target is met, walk the upsized cells off the critical path
  /// and shrink any whose downsizing keeps the target met (area recovery —
  /// commercial optimisers always finish with this).
  bool recover_area = true;
  /// Debug: after every incremental timing update, rollback and buffer
  /// splice, check the netlist (`Netlist::validate`, which includes the
  /// topological gate order) and cross-check arrivals, loads, the longest
  /// path and the critical path against a full `Sta::analyze` and
  /// `Sta::net_loads`, and the whole state bit for bit (reader lists too)
  /// against an `IncrementalSta` rebuilt from scratch; throw
  /// `std::logic_error` on any failure. Expensive —
  /// test/debug builds only.
  bool cross_check_sta = false;
};

struct TimingOptResult {
  double initial_ns = 0.0;
  double final_ns = 0.0;
  double initial_area = 0.0;
  double final_area = 0.0;
  int moves = 0;
  double runtime_sec = 0.0;
  bool met_target = false;

  std::string to_string() const;
};

class TimingOptimizer {
 public:
  explicit TimingOptimizer(const netlist::CellLibrary& lib) : lib_(lib) {}

  /// Optimises `net` in place until the target is met or no move improves
  /// the longest path.
  TimingOptResult optimize(netlist::Netlist& net,
                           const TimingOptOptions& opt) const;

 private:
  const netlist::CellLibrary& lib_;
};

}  // namespace dpmerge::opt
