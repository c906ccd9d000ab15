#include "sta/activity.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "exec/exec.hpp"
#include "util/assert.hpp"
#include "util/csr.hpp"

namespace ppacd::sta {

namespace {

using liberty::Function;
using netlist::CellId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PinId;

// Comb cells per parallel chunk in the level sweeps, like sta.cpp's
// kPinGrain: a level must be much wider than this before fan-out pays.
constexpr std::size_t kCellGrain = 256;
// Cells or nets per chunk in the passes that build the sweep plan.
constexpr std::size_t kBuildGrain = 4096;

// Widest data fan-in of any Function (NAND3, AOI21, OAI21, MUX2, FA); the
// per-cell inputs live in a stack array of this size.
constexpr std::size_t kMaxDataInputs = 3;

/// Signal statistic pair used during composition.
struct Sig {
  double p = 0.5;
  double d = 0.0;
};

/// Data inputs of one cell in library pin order; unconnected or missing
/// inputs keep the Sig default.
using Inputs = std::array<Sig, kMaxDataInputs>;

Sig inv(const Sig& a) { return Sig{1.0 - a.p, a.d}; }

Sig and2(const Sig& a, const Sig& b) {
  return Sig{a.p * b.p, b.p * a.d + a.p * b.d};
}

Sig or2(const Sig& a, const Sig& b) {
  return Sig{a.p + b.p - a.p * b.p, (1.0 - b.p) * a.d + (1.0 - a.p) * b.d};
}

Sig xor2(const Sig& a, const Sig& b) {
  return Sig{a.p * (1.0 - b.p) + b.p * (1.0 - a.p), a.d + b.d};
}

/// Evaluates the gate function over its data inputs (library pin order).
Sig evaluate(Function function, const Inputs& in) {
  switch (function) {
    case Function::kInv: return inv(in[0]);
    case Function::kBuf: return in[0];
    case Function::kNand2: return inv(and2(in[0], in[1]));
    case Function::kNand3: return inv(and2(and2(in[0], in[1]), in[2]));
    case Function::kNor2: return inv(or2(in[0], in[1]));
    case Function::kAnd2: return and2(in[0], in[1]);
    case Function::kOr2: return or2(in[0], in[1]);
    case Function::kXor2: return xor2(in[0], in[1]);
    case Function::kAoi21: return inv(or2(and2(in[0], in[1]), in[2]));
    case Function::kOai21: return inv(and2(or2(in[0], in[1]), in[2]));
    case Function::kMux2: {
      // y = s ? a : b with pins (A, B, S).
      const Sig& a = in[0];
      const Sig& b = in[1];
      const Sig& s = in[2];
      Sig out;
      out.p = s.p * a.p + (1.0 - s.p) * b.p;
      const double p_diff = a.p * (1.0 - b.p) + b.p * (1.0 - a.p);
      out.d = s.p * a.d + (1.0 - s.p) * b.d + p_diff * s.d;
      return out;
    }
    case Function::kHalfAdder: return xor2(in[0], in[1]);
    case Function::kFullAdder: return xor2(xor2(in[0], in[1]), in[2]);
    case Function::kDff: return in[0];  // handled by register update
    case Function::kTieHi: return Sig{1.0, 0.0};
    case Function::kTieLo: return Sig{0.0, 0.0};
  }
  return Sig{};
}


/// Flat sweep plan of the combinational cells, built once per analysis.
/// `order` lists the cells a FIFO Kahn order reaches, which is also level
/// order: `level_begin[l]..level_begin[l + 1]` is level l, and a cell's level
/// is 1 + the highest level among the comb drivers of its data inputs. Cells
/// on or downstream of a combinational loop are never reached; registers are
/// the sources and sinks of the acyclic region and are not in it either.
struct CombPlan {
  std::vector<std::int32_t> order;
  std::vector<std::size_t> level_begin;
  // Per cell id: the gate function, the output net (-1 when the cell writes
  // none) and kMaxDataInputs data-input nets (-1 when unconnected).
  std::vector<Function> function;
  std::vector<std::int32_t> out_net;
  std::vector<std::int32_t> in_net;
  /// Set when some read or write in the sweep is not ordered by a Kahn edge
  /// (a comb cell reading a comb-driven clock net, or two cells writing one
  /// net). The levels then run one cell at a time in Kahn order, which is
  /// the order a serial sweep uses.
  bool serial = false;
};

/// Calls visit(net) for every net `cell` drives, in ascending net id (a cell
/// may drive several nets).
template <typename Visit>
void for_each_driven_net(const Netlist& nl, const netlist::Cell& cell,
                         Visit&& visit) {
  std::int32_t prev = -1;
  for (;;) {
    std::int32_t next = -1;
    for (const PinId pid : cell.pins) {
      const auto& pin = nl.pin(pid);
      if (pin.dir != liberty::PinDir::kOutput || pin.net == netlist::kInvalidId) {
        continue;
      }
      const std::int32_t n = pin.net.value();
      if (nl.net(pin.net).driver != pid || n <= prev) continue;
      if (next < 0 || n < next) next = n;
    }
    if (next < 0) return;
    visit(nl.net(static_cast<NetId>(next)));
    prev = next;
  }
}

CombPlan levelize(const Netlist& nl) {
  const std::size_t cell_count = nl.cell_count();
  CombPlan plan;
  plan.function.resize(cell_count);
  plan.out_net.resize(cell_count);
  plan.in_net.resize(cell_count * kMaxDataInputs);
  std::vector<char> comb(cell_count);
  // Cells whose writes no Kahn edge orders: their output net is driven by
  // another pin as well (1) or is a clock net (2).
  std::vector<char> unordered_write(cell_count);
  exec::parallel_for(0, cell_count, kBuildGrain, [&](std::size_t c) {
    const CellId cid = static_cast<CellId>(c);
    const liberty::LibCell& lc = nl.lib_cell_of(cid);
    comb[c] = !liberty::is_sequential(lc.function);
    plan.function[c] = lc.function;
    const PinId out = nl.cell_output_pin(cid);
    const NetId out_net = out == netlist::kInvalidId ? NetId{} : nl.pin(out).net;
    plan.out_net[c] = out_net == netlist::kInvalidId ? -1 : out_net.value();
    if (out_net != netlist::kInvalidId) {
      const netlist::Net& net = nl.net(out_net);
      unordered_write[c] = net.driver != out ? 1 : net.is_clock ? 2 : 0;
    }
    std::int32_t* in = &plan.in_net[c * kMaxDataInputs];
    std::size_t k = 0;
    for (const PinId pid : nl.cell(cid).pins) {
      const auto& pin = nl.pin(pid);
      if (pin.dir != liberty::PinDir::kInput || pin.is_clock) continue;
      if (k == kMaxDataInputs) break;
      in[k++] = pin.net == netlist::kInvalidId ? -1 : pin.net.value();
    }
    for (; k < kMaxDataInputs; ++k) in[k] = -1;
  });

  // Kahn edges run from the comb driver of a non-clock net to every comb
  // cell on a non-clock pin of it, once per such pin. Each comb cell sizes,
  // then fills, its own fanout row, in net id order and then pin order: the
  // order a serial scan over the nets would push them.
  const auto for_each_sink = [&](std::size_t c, auto&& visit) {
    const auto visit_net = [&](const netlist::Net& net) {
      if (net.is_clock) return;
      for (const PinId pid : net.pins) {
        if (pid == net.driver) continue;
        const auto& pin = nl.pin(pid);
        if (pin.kind != netlist::PinKind::kCellPin || pin.is_clock) continue;
        if (comb[pin.cell.index()] != 0) visit(pin.cell.value());
      }
    };
    for_each_driven_net(nl, nl.cell(static_cast<CellId>(c)), visit_net);
  };
  util::Csr<std::int32_t> fanout;
  fanout.start_rows(cell_count);
  exec::parallel_for(0, cell_count, kBuildGrain, [&](std::size_t c) {
    if (comb[c] != 0) for_each_sink(c, [&](std::int32_t) { fanout.add_to_row(c); });
  });
  fanout.commit_rows();
  exec::parallel_for(0, cell_count, kBuildGrain, [&](std::size_t c) {
    if (comb[c] != 0) for_each_sink(c, [&](std::int32_t s) { fanout.push(c, s); });
  });
  std::vector<std::int32_t> pending(cell_count, 0);
  for (const std::int32_t s : fanout.values()) ++pending[static_cast<std::size_t>(s)];

  // FIFO Kahn order; the order array doubles as the queue. A cell is pushed
  // when its last driver pops, and pops come in non-decreasing level, so
  // everything pushed while level l pops is level l + 1: each level ends
  // where the queue stood when the level before it was exhausted.
  plan.order.reserve(cell_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    if (comb[c] != 0 && pending[c] == 0) {
      plan.order.push_back(static_cast<std::int32_t>(c));
    }
  }
  plan.level_begin.push_back(0);
  std::size_t level_end = plan.order.size();
  for (std::size_t head = 0; head < plan.order.size(); ++head) {
    if (head == level_end) {
      plan.level_begin.push_back(head);
      level_end = plan.order.size();
    }
    const auto c = static_cast<std::size_t>(plan.order[head]);
    for (const std::int32_t next : fanout.row(c)) {
      if (--pending[static_cast<std::size_t>(next)] == 0) plan.order.push_back(next);
    }
  }
  plan.level_begin.push_back(plan.order.size());

  // Every other read of a written net follows a Kahn edge from its writer.
  // A write to a net another pin drives is unordered outright; a write to a
  // clock net only if a reached cell (one with no pending in-edge left)
  // reads that net as data.
  const auto reached_reader = [&](PinId pid) {
    const auto& pin = nl.pin(pid);
    return pin.kind == netlist::PinKind::kCellPin &&
           pin.dir == liberty::PinDir::kInput && !pin.is_clock &&
           comb[pin.cell.index()] != 0 && pending[pin.cell.index()] == 0;
  };
  for (const std::int32_t c : plan.order) {
    const auto ci = static_cast<std::size_t>(c);
    if (unordered_write[ci] == 0) continue;
    const auto& readers = nl.net(static_cast<NetId>(plan.out_net[ci])).pins;
    if (unordered_write[ci] == 1 ||
        std::any_of(readers.begin(), readers.end(), reached_reader)) {
      plan.serial = true;
      break;
    }
  }
  return plan;
}

/// (D net or -1, Q net) of every register with a connected output, in cell
/// index order.
std::vector<std::array<std::int32_t, 2>> register_pairs(const Netlist& nl) {
  std::vector<std::array<std::int32_t, 2>> regs;
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    const CellId cid = static_cast<CellId>(ci);
    if (!liberty::is_sequential(nl.lib_cell_of(cid).function)) continue;
    NetId d_net = netlist::kInvalidId;
    for (PinId pid : nl.cell(cid).pins) {
      const auto& pin = nl.pin(pid);
      if (pin.dir == liberty::PinDir::kInput && !pin.is_clock) d_net = pin.net;
    }
    const PinId out = nl.cell_output_pin(cid);
    if (out == netlist::kInvalidId) continue;
    const NetId q_net = nl.pin(out).net;
    if (q_net == netlist::kInvalidId) continue;
    regs.push_back({d_net == netlist::kInvalidId ? -1 : d_net.value(),
                    q_net.value()});
  }
  return regs;
}

}  // namespace

std::vector<NetActivity> propagate_activity(const Netlist& nl,
                                            const ActivityOptions& options) {
  for (const liberty::LibCellId lid : nl.library().cell_ids()) {
    const liberty::LibCell& lc = nl.library().cell(lid);
    PPACD_CHECK(static_cast<std::size_t>(lc.data_input_count()) <= kMaxDataInputs,
                lc.name << " has " << lc.data_input_count()
                        << " data inputs; the activity model reads at most "
                        << kMaxDataInputs);
  }
  std::vector<NetActivity> act(nl.net_count());

  // Defaults for registered signals (refined by the fixpoint sweeps below).
  for (auto& a : act) {
    a.p_one = 0.5;
    a.toggle = options.dff_damping * 0.5;
  }

  // Primary inputs: deterministic per-port variation around the defaults so
  // different interface nets carry different activity.
  for (std::size_t po = 0; po < nl.port_count(); ++po) {
    const auto& port = nl.port(static_cast<netlist::PortId>(po));
    if (port.dir != liberty::PinDir::kInput) continue;
    const NetId net = nl.pin(port.pin).net;
    if (net == netlist::kInvalidId) continue;
    const double jitter = 0.5 + static_cast<double>((po * 2654435761u) % 100) / 100.0;
    act[net.index()].p_one = options.input_p;
    act[net.index()].toggle =
        std::min(options.max_toggle, options.input_toggle * jitter);
  }

  // Clock nets: two transitions per cycle by definition.
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    if (nl.net(static_cast<NetId>(ni)).is_clock) {
      act[ni].p_one = 0.5;
      act[ni].toggle = 2.0;
    }
  }

  const CombPlan plan = levelize(nl);
  const std::vector<std::array<std::int32_t, 2>> regs = register_pairs(nl);
  const std::size_t grain = plan.serial ? exec::kSerialGrain : kCellGrain;
  const std::int32_t* order = plan.order.data();
  const Function* fn = plan.function.data();
  const std::int32_t* out_net = plan.out_net.data();
  const std::int32_t* in_net = plan.in_net.data();
  NetActivity* a = act.data();
  const double max_toggle = options.max_toggle;

  for (int sweep = 0; sweep < options.sweeps; ++sweep) {
    // Combinational propagation, one level at a time in pull form: a cell
    // writes only its own output net and reads register, port and
    // lower-level nets, so any chunking gives the serial sweep's bits.
    for (std::size_t l = 0; l + 1 < plan.level_begin.size(); ++l) {
      exec::parallel_for_chunks(
          plan.level_begin[l], plan.level_begin[l + 1], grain,
          [=](std::size_t lo, std::size_t hi, std::size_t) {
            for (std::size_t i = lo; i < hi; ++i) {
              const auto c = static_cast<std::size_t>(order[i]);
              if (out_net[c] < 0) continue;
              Inputs inputs;
              for (std::size_t k = 0; k < kMaxDataInputs; ++k) {
                const std::int32_t n = in_net[c * kMaxDataInputs + k];
                if (n < 0) continue;
                inputs[k].p = a[n].p_one;
                inputs[k].d = a[n].toggle;
              }
              const Sig out_sig = evaluate(fn[c], inputs);
              a[out_net[c]].p_one = std::clamp(out_sig.p, 0.0, 1.0);
              a[out_net[c]].toggle = std::clamp(out_sig.d, 0.0, max_toggle);
            }
          });
    }

    // Register update: Q resamples D once per cycle with damping. Serial in
    // cell order: in a shift chain a register's D is the Q of a register
    // updated earlier in this loop, and it must read that new value.
    for (const auto& [d_net, q_net] : regs) {
      const double p_d = d_net < 0 ? 0.5 : a[d_net].p_one;
      a[q_net].p_one = p_d;
      a[q_net].toggle =
          std::min(1.0, options.dff_damping * 2.0 * p_d * (1.0 - p_d));
    }
  }
  return act;
}

}  // namespace ppacd::sta
