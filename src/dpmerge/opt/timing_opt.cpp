#include "dpmerge/opt/timing_opt.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dpmerge/obs/obs.h"

namespace dpmerge::opt {

using netlist::CellVariant;
using netlist::Gate;
using netlist::GateId;
using netlist::IncrementalSta;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sta;

std::string TimingOptResult::to_string() const {
  std::ostringstream os;
  os << "delay " << initial_ns << " -> " << final_ns << " ns, area "
     << initial_area << " -> " << final_area << ", " << moves << " moves, "
     << runtime_sec << " s" << (met_target ? " (target met)" : "");
  return os.str();
}

namespace {

void cross_check(const netlist::CellLibrary& lib, const Sta& sta,
                 const Netlist& net, const IncrementalSta& ista) {
  if (const auto errs = net.validate(); !errs.empty()) {
    throw std::logic_error("netlist invariant broken: " + errs.front());
  }
  const auto full = sta.analyze(net);
  if (std::abs(full.longest_path_ns - ista.longest_path_ns()) > 1e-9) {
    throw std::logic_error("incremental STA longest path diverged from full");
  }
  const auto loads = sta.net_loads(net);
  for (std::size_t i = 0; i < full.arrival.size(); ++i) {
    if (std::abs(full.arrival[i] - ista.arrivals()[i]) > 1e-9) {
      throw std::logic_error("incremental STA arrival diverged on net " +
                             std::to_string(i));
    }
    if (std::abs(loads[i] - ista.load(NetId{static_cast<int>(i)})) > 1e-9) {
      throw std::logic_error("incremental STA load diverged on net " +
                             std::to_string(i));
    }
  }
  if (full.critical_path != ista.critical_path()) {
    throw std::logic_error("incremental STA critical path diverged from full");
  }
  // Rollbacks and buffer splices must leave exactly the state a rebuild
  // from scratch computes: same bits, same reader lists.
  const IncrementalSta fresh(net, lib);
  bool same = fresh.longest_path_ns() == ista.longest_path_ns() &&
              fresh.arrivals() == ista.arrivals();
  for (int n = 0; same && n < net.net_count(); ++n) {
    const auto a = fresh.readers(NetId{n});
    const auto b = ista.readers(NetId{n});
    same = fresh.load(NetId{n}) == ista.load(NetId{n}) &&
           std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  if (!same) {
    throw std::logic_error("incremental STA state differs from a rebuild");
  }
}

}  // namespace

TimingOptResult TimingOptimizer::optimize(Netlist& net,
                                          const TimingOptOptions& opt) const {
  obs::Span span("opt.timing");
  const std::int64_t t0 = obs::now_us();
  Sta sta(lib_);
  IncrementalSta ista(net, lib_);
  TimingOptResult res;

  res.initial_ns = ista.longest_path_ns();
  res.initial_area = sta.area_scaled(net);

  auto check = [&] {
    if (opt.cross_check_sta) cross_check(lib_, sta, net, ista);
  };

  // Both keyed by net id: buffer insertion shifts gate ids, not net ids.
  std::set<int> locked_upsize;   // output nets of gates upsizing didn't help
  std::set<int> locked_buffer;   // nets already buffer-split

  while (ista.longest_path_ns() > opt.target_ns && res.moves < opt.max_moves) {
    const auto path = ista.critical_path();

    // Candidate 1: upsize the critical-path driver with the largest
    // estimated gain (resistance drop times output load).
    GateId best_gate{-1};
    double best_gain = 0.0;
    for (NetId pn : path) {
      const Gate* d = net.driver(pn);
      if (!d || d->drive + 1 >= netlist::kDriveLevels) continue;
      if (locked_upsize.count(d->output.value)) continue;
      const CellVariant& cur = lib_.variant(d->type, d->drive);
      const CellVariant& up = lib_.variant(d->type, d->drive + 1);
      const double gain = (cur.drive_res_ns - up.drive_res_ns) * ista.load(pn);
      if (gain > best_gain) {
        best_gain = gain;
        best_gate = net.id_of(*d);
      }
    }

    bool applied = false;
    if (best_gate.value >= 0) {
      Gate& g = net.mutable_gates()[static_cast<std::size_t>(best_gate.value)];
      const double before_ns = ista.longest_path_ns();
      ++g.drive;
      ista.update_drive_change(best_gate);
      check();
      const double delta_ns = before_ns - ista.longest_path_ns();
      if (delta_ns > 1e-9) {
        ++res.moves;
        applied = true;
        obs::stat_add("opt.upsize.accept");
        obs::stat_add("opt.slack_recovered_ps",
                      static_cast<std::int64_t>(std::llround(delta_ns * 1e3)));
      } else {
        --g.drive;  // revert: the larger input cap hurt upstream more
        ista.rollback();
        check();
        locked_upsize.insert(g.output.value);
        obs::stat_add("opt.upsize.reject");
      }
      if (obs::tracing()) {
        obs::instant("opt.move",
                     obs::TraceArgs()
                         .add("kind", "upsize")
                         .add("gate", best_gate.value)
                         .add("delta_ps", static_cast<std::int64_t>(std::llround(delta_ns * 1e3)))
                         .add("verdict", applied ? "accept" : "reject")
                         .str());
      }
    }

    if (!applied) {
      // Candidate 2: split the fanout of the most heavily loaded critical
      // net, keeping the critical successor directly connected and moving
      // the other readers behind a buffer.
      NetId worst{-1};
      double worst_load = opt.buffer_load_threshold;
      for (NetId pn : path) {
        if (locked_buffer.count(pn.value) || net.is_const(pn)) continue;
        const double l = ista.load(pn);
        if (l > worst_load) {
          worst_load = l;
          worst = pn;
        }
      }
      if (worst.value >= 0) {
        locked_buffer.insert(worst.value);
        // The critical successor is the gate driving the next net on the
        // path after `worst`.
        int keep_gate = -1;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          if (path[i] == worst) {
            const Gate* nxt = net.driver(path[i + 1]);
            if (nxt) keep_gate = net.id_of(*nxt).value;
          }
        }
        const double before_ns = ista.longest_path_ns();
        const int rewired = net.insert_buffer(worst, GateId{keep_gate});
        // Splice the buffer into the timing state and re-time its cone.
        ista.buffer_inserted(worst);
        check();
        const double delta_ns = before_ns - ista.longest_path_ns();
        if (rewired > 0 && delta_ns > 1e-9) {
          ++res.moves;
          applied = true;
          obs::stat_add("opt.buffer.accept");
          obs::stat_add(
              "opt.slack_recovered_ps",
              static_cast<std::int64_t>(std::llround(delta_ns * 1e3)));
        } else {
          obs::stat_add("opt.buffer.reject");
        }
        if (obs::tracing()) {
          obs::instant("opt.move",
                       obs::TraceArgs()
                           .add("kind", "buffer")
                           .add("net", worst.value)
                           .add("rewired", rewired)
                           .add("delta_ps", static_cast<std::int64_t>(std::llround(delta_ns * 1e3)))
                           .add("verdict", applied ? "accept" : "reject")
                           .str());
        }
        // Otherwise keep the (harmless) buffer and whatever timing
        // resulted; mark and move on.
      }
    }

    if (!applied && best_gate.value < 0) break;  // no candidates left
    if (!applied) {
      // Both move kinds exhausted without improvement this round; stop when
      // every upsize is locked and no bufferable net remains.
      bool any_left = false;
      for (NetId pn : ista.critical_path()) {
        const Gate* d = net.driver(pn);
        if (d && d->drive + 1 < netlist::kDriveLevels &&
            !locked_upsize.count(d->output.value)) {
          any_left = true;
        }
      }
      if (!any_left) break;
    }
  }

  // Area recovery: once the target is met, try to give back the sizing on
  // cells that no longer need it. Gates are visited in creation order —
  // ascending output net, as every gate's output net is created with it —
  // not in gate order, where inserted buffers sit beside their drivers.
  if (opt.recover_area && ista.longest_path_ns() <= opt.target_ns) {
    for (int n = 0; n < net.net_count(); ++n) {
      const Gate* d = net.driver(NetId{n});
      if (!d) continue;
      const GateId id = net.id_of(*d);
      Gate& g = net.mutable_gates()[static_cast<std::size_t>(id.value)];
      while (g.drive > 0) {
        --g.drive;
        ista.update_drive_change(id);
        check();
        if (ista.longest_path_ns() <= opt.target_ns) {
          ++res.moves;
          obs::stat_add("opt.downsize.accept");
        } else {
          ++g.drive;
          ista.rollback();
          check();
          break;
        }
      }
    }
  }

  res.final_ns = ista.longest_path_ns();
  res.final_area = sta.area_scaled(net);
  res.met_target = res.final_ns <= opt.target_ns;
  res.runtime_sec = static_cast<double>(obs::now_us() - t0) * 1e-6;
  return res;
}

}  // namespace dpmerge::opt
