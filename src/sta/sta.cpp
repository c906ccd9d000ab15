#include "sta/sta.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <new>
#include <queue>

#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "observe/observe.hpp"
#include "telemetry/telemetry.hpp"
#include "util/simd.hpp"
#include "util/logging.hpp"

namespace ppacd::sta {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Pins per parallel chunk in the level sweeps; a level must be much wider
// than this before fan-out pays for itself.
constexpr std::size_t kPinGrain = 256;
}

Sta::Sta(const netlist::Netlist& netlist, const StaOptions& options)
    : nl_(&netlist), options_(options) {}

geom::Point Sta::pin_position(netlist::PinId pin_id) const {
  const netlist::Pin& pin = nl_->pin(pin_id);
  if (pin.kind == netlist::PinKind::kTopPort) {
    return nl_->port(pin.port).position;
  }
  assert(options_.cell_positions != nullptr);
  return options_.cell_positions->at(pin.cell.index());
}

double Sta::clock_arrival_of(netlist::CellId cell) const {
  if (options_.clock_arrivals_ps == nullptr) return 0.0;
  return options_.clock_arrivals_ps->at(cell.index());
}

double Sta::net_wirelength_um(netlist::NetId net_id) const {
  if (options_.cell_positions == nullptr) return 0.0;
  geom::BBox box;
  for (netlist::PinId pid : nl_->net(net_id).pins) {
    box.expand(pin_position(pid));
  }
  return box.half_perimeter();
}

void Sta::build_graph() {
  const netlist::Netlist& nl = *nl_;
  const liberty::Library& lib = nl.library();
  arc_from_.clear();
  arc_to_.clear();
  arc_delay_.clear();
  endpoints_.clear();

  auto add_arc = [this](netlist::PinId from, netlist::PinId to, double delay) {
    arc_from_.push_back(from);
    arc_to_.push_back(to);
    arc_delay_.push_back(delay);
  };

  // Per-net: driver load capacitance and per-sink wire delay.
  const bool placed = options_.cell_positions != nullptr;
  std::vector<double> net_load_ff(nl.net_count(), 0.0);
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    const netlist::NetId net_id = static_cast<netlist::NetId>(ni);
    const netlist::Net& net = nl.net(net_id);
    if (net.is_clock || net.driver == netlist::kInvalidId) continue;

    double load = 0.0;
    for (netlist::PinId pid : net.pins) {
      if (pid == net.driver) continue;
      const netlist::Pin& pin = nl.pin(pid);
      if (pin.kind == netlist::PinKind::kCellPin) {
        load += lib.cell(nl.cell(pin.cell).lib_cell)
                    .pins[static_cast<std::size_t>(pin.lib_pin)]
                    .cap_ff;
      }
    }
    if (placed) {
      load += lib.wire_cap_ff_per_um() * net_wirelength_um(net_id);
    }
    net_load_ff[ni] = load;

    // Net arcs: driver -> each sink, Elmore-style wire delay.
    const geom::Point driver_pos = placed ? pin_position(net.driver) : geom::Point{};
    for (netlist::PinId pid : net.pins) {
      if (pid == net.driver) continue;
      double wire_delay = 0.0;
      if (placed) {
        const double len = geom::manhattan(driver_pos, pin_position(pid));
        const netlist::Pin& pin = nl.pin(pid);
        double sink_cap = 0.0;
        if (pin.kind == netlist::PinKind::kCellPin) {
          sink_cap = lib.cell(nl.cell(pin.cell).lib_cell)
                         .pins[static_cast<std::size_t>(pin.lib_pin)]
                         .cap_ff;
        }
        wire_delay = lib.wire_res_kohm_per_um() * len *
                     (0.5 * lib.wire_cap_ff_per_um() * len + sink_cap);
      }
      add_arc(net.driver, pid, wire_delay);
    }
  }

  // Cell arcs.
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    const netlist::CellId cid = static_cast<netlist::CellId>(ci);
    const netlist::Cell& cell = nl.cell(cid);
    const liberty::LibCell& lc = lib.cell(cell.lib_cell);
    const netlist::PinId out = nl.cell_output_pin(cid);
    if (out == netlist::kInvalidId) continue;

    const netlist::NetId out_net = nl.pin(out).net;
    const double load =
        out_net == netlist::kInvalidId ? 0.0 : net_load_ff[out_net.index()];
    const double delay = lc.intrinsic_ps + lc.drive_res_kohm * load;

    if (liberty::is_sequential(lc.function)) {
      const int ck = lc.clock_pin_index();
      assert(ck >= 0);
      add_arc(nl.cell_pin(cid, ck), out, delay);  // CK -> Q launch arc
    } else {
      for (netlist::PinId pid : cell.pins) {
        const netlist::Pin& pin = nl.pin(pid);
        if (pin.dir == liberty::PinDir::kInput && !pin.is_clock) {
          add_arc(pid, out, delay);
        }
      }
    }
  }

  // Endpoints: flip-flop D pins and output ports.
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    const netlist::CellId cid = static_cast<netlist::CellId>(ci);
    const liberty::LibCell& lc = lib.cell(nl.cell(cid).lib_cell);
    if (!liberty::is_sequential(lc.function)) continue;
    for (netlist::PinId pid : nl.cell(cid).pins) {
      const netlist::Pin& pin = nl.pin(pid);
      if (pin.dir == liberty::PinDir::kInput && !pin.is_clock) {
        endpoints_.push_back(pid);
      }
    }
  }
  for (std::size_t po = 0; po < nl.port_count(); ++po) {
    const netlist::Port& port = nl.port(static_cast<netlist::PortId>(po));
    if (port.dir == liberty::PinDir::kOutput) endpoints_.push_back(port.pin);
  }

  // Flat per-pin arc lists, filled in arc creation order so each
  // row reads exactly like the push_back sequence it replaced.
  fanin_arcs_.start_rows(nl.pin_count());
  fanout_arcs_.start_rows(nl.pin_count());
  const std::size_t arc_count = arc_from_.size();
  for (std::size_t ai = 0; ai < arc_count; ++ai) {
    fanout_arcs_.add_to_row(arc_from_[ai].index());
    fanin_arcs_.add_to_row(arc_to_[ai].index());
  }
  fanin_arcs_.commit_rows();
  fanout_arcs_.commit_rows();
  for (std::size_t ai = 0; ai < arc_count; ++ai) {
    fanout_arcs_.push(arc_from_[ai].index(),
                      static_cast<std::int32_t>(ai));
    fanin_arcs_.push(arc_to_[ai].index(),
                     static_cast<std::int32_t>(ai));
  }

  // Topological order (Kahn).
  topo_order_.clear();
  topo_order_.reserve(nl.pin_count());
  std::vector<std::int32_t> pending(nl.pin_count(), 0);
  std::queue<netlist::PinId> ready;
  for (std::size_t p = 0; p < nl.pin_count(); ++p) {
    pending[p] = static_cast<std::int32_t>(fanin_arcs_.row_size(p));
    if (pending[p] == 0) ready.push(static_cast<netlist::PinId>(p));
  }
  while (!ready.empty()) {
    const netlist::PinId pid = ready.front();
    ready.pop();
    topo_order_.push_back(pid);
    for (std::int32_t ai : fanout_arcs_.row(pid.index())) {
      const netlist::PinId to = arc_to_[static_cast<std::size_t>(ai)];
      if (--pending[to.index()] == 0) ready.push(to);
    }
  }
  assert(topo_order_.size() == nl.pin_count() && "timing graph has a cycle");

  // Level = longest fanin distance. All arcs cross level boundaries, so the
  // pins of one level never feed each other and a level can be processed
  // pin-parallel. Buckets are filled in topo order, keeping their contents
  // independent of how the sweep is later chunked.
  std::vector<std::int32_t> level(nl.pin_count(), 0);
  std::int32_t max_level = 0;
  for (const netlist::PinId pid : topo_order_) {
    const auto p = pid.index();
    for (std::int32_t ai : fanout_arcs_.row(p)) {
      const auto to = arc_to_[static_cast<std::size_t>(ai)].index();
      level[to] = std::max(level[to], level[p] + 1);
    }
    max_level = std::max(max_level, level[p]);
  }
  level_buckets_.start_rows(static_cast<std::size_t>(max_level) + 1);
  for (const netlist::PinId pid : topo_order_) {
    level_buckets_.add_to_row(
        static_cast<std::size_t>(level[pid.index()]));
  }
  level_buckets_.commit_rows();
  for (const netlist::PinId pid : topo_order_) {
    level_buckets_.push(
        static_cast<std::size_t>(level[pid.index()]), pid);
  }
}

void Sta::propagate_arrivals() {
  const netlist::Netlist& nl = *nl_;
  arrival_.assign(nl.pin_count(), -kInf);
  worst_fanin_.assign(nl.pin_count(), -1);

  // Sources: pins without fanin arcs. Clock pins launch at their cell's
  // clock arrival; everything else (input ports, dangling) launches at 0.
  for (std::size_t p = 0; p < nl.pin_count(); ++p) {
    if (fanin_arcs_.row_size(p) != 0) continue;
    const netlist::Pin& pin = nl.pin(static_cast<netlist::PinId>(p));
    arrival_[p] = pin.is_clock && pin.kind == netlist::PinKind::kCellPin
                      ? clock_arrival_of(pin.cell)
                      : 0.0;
  }

  // Flight recorder: sampled per-level sweep widths (how much pin-parallel
  // work each level exposes). Serial emit from the loop head; nested STA
  // runs keep observe_stream off so only the flow's evaluation streams.
  const bool observing = options_.observe_stream && observe::active();
  const std::int32_t obs_series =
      observing ? observe::recorder().begin_series(observe::Stream::kStaLevel)
                : -1;

  // Pull-based blocked level sweep: every pin beyond level 0 folds its own
  // fanin slots in arc order, so arrivals and the worst-arc choice are
  // identical for any thread count. Lower levels are complete before a
  // level starts. Each chunk walks the arc lanes through restrict pointers,
  // touching only the 4-byte source ids and 8-byte delays (not whole arc
  // records); `arr` is both read (sources, lower levels) and written (this
  // level), which restrict allows for one pointer — nothing else aliases it.
  const std::size_t* PPACD_RESTRICT fin_off = fanin_arcs_.offsets().data();
  const std::int32_t* PPACD_RESTRICT fin_arc = fanin_arcs_.values().data();
  const netlist::PinId* PPACD_RESTRICT src = arc_from_.data();
  const double* PPACD_RESTRICT dly = arc_delay_.data();
  double* PPACD_RESTRICT arr = arrival_.data();
  std::int32_t* PPACD_RESTRICT wf = worst_fanin_.data();
  for (std::size_t l = 1; l < level_buckets_.rows(); ++l) {
    const std::span<const netlist::PinId> bucket = level_buckets_.row(l);
    if (observing &&
        observe::recorder().want(static_cast<std::int64_t>(l))) {
      observe::recorder().record(observe::Stream::kStaLevel, obs_series,
                                 static_cast<std::int64_t>(l), 0,
                                 {static_cast<double>(bucket.size())});
    }
    const netlist::PinId* PPACD_RESTRICT pins = bucket.data();
    exec::parallel_for_chunks(
        std::size_t{0}, bucket.size(), kPinGrain,
        [=](std::size_t lo, std::size_t hi, std::size_t) {
          for (std::size_t i = lo; i < hi; ++i) {
            const auto p = pins[i].index();
            double best = -kInf;
            std::int32_t best_arc = -1;
            for (std::size_t k = fin_off[p]; k < fin_off[p + 1]; ++k) {
              const std::int32_t ai = fin_arc[k];
              const double candidate = arr[src[ai].index()] + dly[ai];
              if (candidate > best) {
                best = candidate;
                best_arc = ai;
              }
            }
            arr[p] = best;
            wf[p] = best_arc;
          }
        });
  }
}

void Sta::propagate_requireds() {
  const netlist::Netlist& nl = *nl_;
  required_.assign(nl.pin_count(), kInf);
  const double period = options_.clock_period_ps;

  for (const netlist::PinId pid : endpoints_) {
    const netlist::Pin& pin = nl.pin(pid);
    double req = period;
    if (pin.kind == netlist::PinKind::kCellPin) {
      const liberty::LibCell& lc = nl.lib_cell_of(pin.cell);
      req = period + clock_arrival_of(pin.cell) - lc.setup_ps;
    }
    required_[pid.index()] =
        std::min(required_[pid.index()], req);
  }

  // Pull-based blocked level sweep, levels descending: each pin min-folds
  // its fanout slots (all pointing at higher, already-final levels) on top
  // of its endpoint requirement, thread-count independent as for arrivals.
  const std::size_t* PPACD_RESTRICT fout_off = fanout_arcs_.offsets().data();
  const std::int32_t* PPACD_RESTRICT fout_arc = fanout_arcs_.values().data();
  const netlist::PinId* PPACD_RESTRICT dst = arc_to_.data();
  const double* PPACD_RESTRICT dly = arc_delay_.data();
  double* PPACD_RESTRICT req_arr = required_.data();
  for (std::size_t l = level_buckets_.rows(); l-- > 0;) {
    const std::span<const netlist::PinId> bucket = level_buckets_.row(l);
    const netlist::PinId* PPACD_RESTRICT pins = bucket.data();
    exec::parallel_for_chunks(
        std::size_t{0}, bucket.size(), kPinGrain,
        [=](std::size_t lo, std::size_t hi, std::size_t) {
          for (std::size_t i = lo; i < hi; ++i) {
            const auto p = pins[i].index();
            double req = req_arr[p];
            for (std::size_t k = fout_off[p]; k < fout_off[p + 1]; ++k) {
              const std::int32_t ai = fout_arc[k];
              req = std::min(req, req_arr[dst[ai].index()] - dly[ai]);
            }
            req_arr[p] = req;
          }
        });
  }

  wns_ps_ = 0.0;
  tns_ns_ = 0.0;
  for (const netlist::PinId pid : endpoints_) {
    const double s = slack_ps(pid);
    if (s < 0.0) {
      wns_ps_ = std::min(wns_ps_, s);
      tns_ns_ += s / 1000.0;
    }
  }
}

fault::Expected<void, fault::FlowError> Sta::try_run() {
  // Fault site `sta.arrival`. Poison lets the propagation finish, then
  // corrupts WNS/TNS so the non-finite check below turns them into a
  // structured error; every other kind fails before propagation.
  const auto fault_kind = fault::trigger("sta.arrival", options_.fault_key);
  ran_ = false;
  if (fault_kind.has_value() && *fault_kind != fault::FaultKind::kPoison) {
    return fault::Unexpected<fault::FlowError>(
        fault::make_error("sta.arrival", *fault_kind));
  }
  try {
    build_graph();
    propagate_arrivals();
    propagate_requireds();
    if (options_.observe_stream && observe::active()) {
      // End-of-run endpoint slack histogram. Unconstrained endpoints (slack
      // +inf) are excluded; the frame layout is [lo_ps, hi_ps, count_0..n-1].
      std::vector<double> slacks;
      slacks.reserve(endpoints_.size());
      for (const netlist::PinId pid : endpoints_) {
        const double s = slack_ps(pid);
        if (std::isfinite(s)) slacks.push_back(s);
      }
      constexpr int kSlackBins = 32;
      std::vector<double> frame(2 + kSlackBins, 0.0);
      if (!slacks.empty()) {
        double lo = slacks[0];
        double hi = slacks[0];
        for (const double s : slacks) {
          lo = std::min(lo, s);
          hi = std::max(hi, s);
        }
        if (hi <= lo) hi = lo + 1.0;  // degenerate: all slacks identical
        frame[0] = lo;
        frame[1] = hi;
        for (const double s : slacks) {
          const int bin = std::min(
              kSlackBins - 1,
              static_cast<int>((s - lo) / (hi - lo) * kSlackBins));
          frame[static_cast<std::size_t>(2 + bin)] += 1.0;
        }
      }
      const std::int32_t series =
          observe::recorder().begin_series(observe::Stream::kStaSlack);
      observe::recorder().record_frame(observe::Stream::kStaSlack, series, 0,
                                       kSlackBins, 0, std::move(frame));
    }
  } catch (const std::bad_alloc&) {
    return fault::Unexpected<fault::FlowError>(
        fault::make_error("sta.arrival", fault::FaultKind::kAlloc));
  }
  PPACD_COUNT("sta.runs", 1);
  PPACD_GAUGE_SET("sta.wns_ps", wns_ps_);
  PPACD_GAUGE_SET("sta.tns_ns", tns_ns_);
  PPACD_LOG_DEBUG("sta") << nl_->name() << ": WNS " << wns_ps_ << " ps, TNS "
                         << tns_ns_ << " ns";
  if (fault_kind.has_value()) {
    wns_ps_ = fault::poison_value();
    tns_ns_ = fault::poison_value();
  }
  if (!std::isfinite(wns_ps_) || !std::isfinite(tns_ns_)) {
    return fault::err("non-finite-result", "sta.arrival",
                      "propagated WNS/TNS is not finite");
  }
  ran_ = true;
  return {};
}

double Sta::slack_ps(netlist::PinId pin) const {
  const double a = arrival_.at(pin.index());
  const double r = required_.at(pin.index());
  if (a == -kInf || r == kInf) return kInf;
  return r - a;
}

double Sta::net_slack_ps(netlist::NetId net_id) const {
  const netlist::Net& net = nl_->net(net_id);
  if (net.is_clock || net.driver == netlist::kInvalidId) return kInf;
  return slack_ps(net.driver);
}

std::vector<TimingPath> Sta::worst_paths(std::size_t max_paths) const {
  assert(ran_);
  std::vector<netlist::PinId> sorted = endpoints_;
  std::sort(sorted.begin(), sorted.end(),
            [this](netlist::PinId a, netlist::PinId b) {
              return slack_ps(a) < slack_ps(b);
            });
  if (sorted.size() > max_paths) sorted.resize(max_paths);

  std::vector<TimingPath> paths;
  paths.reserve(sorted.size());
  for (const netlist::PinId end : sorted) {
    if (slack_ps(end) == kInf) continue;  // unconstrained endpoint
    TimingPath path;
    path.endpoint = end;
    path.slack_ps = slack_ps(end);
    path.arrival_ps = arrival_.at(end.index());
    // Backtrack the arrival-defining chain to a source.
    netlist::PinId cursor = end;
    while (cursor != netlist::kInvalidId) {
      path.pins.push_back(cursor);
      const std::int32_t ai = worst_fanin_[cursor.index()];
      cursor = ai < 0 ? netlist::kInvalidId : arc_from_[static_cast<std::size_t>(ai)];
    }
    std::reverse(path.pins.begin(), path.pins.end());
    paths.push_back(std::move(path));
  }
  PPACD_COUNT("sta.paths.extracted", paths.size());
  return paths;
}

}  // namespace ppacd::sta
