#pragma once

/// Gate-level dead-logic lint (DESIGN.md §13): runs the tri-state known-bits
/// domain forward over the netlist's gates and an observability sweep
/// backward from the output buses, and flags cells synthesis left behind:
///
///   net.absint.constant-cell      the gate's output is the same value on
///                                 every stimulus (its cone folds to a tie)
///   net.absint.unobservable-cell  no path of non-constant influence from
///                                 the gate's output to any output bus bit
///
/// Both are warnings — the netlist is functionally correct either way; the
/// findings measure synthesis slack (a MUX with a constant select, masked
/// partial products, padding of comparator results) rather than bugs.

#include "dpmerge/check/diagnostic.h"
#include "dpmerge/netlist/netlist.h"

namespace dpmerge::check {

/// Summary counters alongside the per-gate findings (the CLI prints these
/// even when the report is capped).
struct NetlistAbsintStats {
  int constant_cells = 0;
  int unobservable_cells = 0;
  int gates = 0;
};

/// Runs both sweeps. Findings come in gate-index order (the netlist's
/// topological order). At most `max_findings` diagnostics are emitted (the
/// stats count everything); pass a negative cap for no limit.
CheckReport lint_netlist_deadlogic(const netlist::Netlist& nl,
                                   NetlistAbsintStats* stats = nullptr,
                                   int max_findings = 50);

}  // namespace dpmerge::check
