#include "opt/sizing.hpp"

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "sta/sta.hpp"
#include "util/logging.hpp"

namespace ppacd::opt {

namespace {

using netlist::CellId;
using netlist::Netlist;
using netlist::PinId;

/// Upgrade chain by library-cell name: X1 -> X2 -> X4 within a family.
std::unordered_map<liberty::LibCellId, liberty::LibCellId> upgrade_map(
    const liberty::Library& lib) {
  std::unordered_map<liberty::LibCellId, liberty::LibCellId> upgrades;
  const char* chains[][3] = {
      {"INV_X1", "INV_X2", "INV_X4"},
      {"BUF_X1", "BUF_X2", "BUF_X4"},
  };
  for (const auto& chain : chains) {
    for (int i = 0; i + 1 < 3; ++i) {
      const auto from = lib.find(chain[i]);
      const auto to = lib.find(chain[i + 1]);
      if (from.has_value() && to.has_value()) upgrades.emplace(*from, *to);
    }
  }
  return upgrades;
}

}  // namespace

fault::Expected<SizingResult, fault::FlowError> resize_critical_cells(
    Netlist& nl, const std::vector<geom::Point>& positions,
    const SizingOptions& options) {
  SizingResult result;
  const liberty::Library& lib = nl.library();
  const auto upgrades = upgrade_map(lib);

  for (int round = 0; round < options.max_rounds; ++round) {
    sta::StaOptions sta_options;
    sta_options.clock_period_ps = options.clock_period_ps;
    if (!positions.empty()) sta_options.cell_positions = &positions;
    sta_options.fault_key = sta::kStaKeySizing + static_cast<std::uint64_t>(round);
    sta::Sta sta(nl, sta_options);
    if (auto timed = sta.try_run(); !timed.has_value()) {
      return fault::Unexpected<fault::FlowError>(std::move(timed).error());
    }
    if (round == 0) {
      result.wns_before_ps = sta.wns_ps();
      result.tns_before_ns = sta.tns_ns();
    }
    result.wns_after_ps = sta.wns_ps();
    result.tns_after_ns = sta.tns_ns();
    if (sta.wns_ps() >= 0.0) break;
    ++result.rounds;

    std::unordered_set<CellId> touched;
    int swaps_this_round = 0;
    for (const sta::TimingPath& path : sta.worst_paths(
             static_cast<std::size_t>(options.paths_per_round))) {
      if (path.slack_ps >= 0.0) break;
      for (const PinId pid : path.pins) {
        const netlist::Pin& pin = nl.pin(pid);
        if (pin.kind != netlist::PinKind::kCellPin) continue;
        if (pin.dir != liberty::PinDir::kOutput) continue;
        const CellId cell = pin.cell;
        if (touched.count(cell) > 0) continue;
        const auto upgrade = upgrades.find(nl.cell(cell).lib_cell);
        if (upgrade == upgrades.end()) continue;

        // Predicted gain: (R_old - R_new) * C_load on the driven net.
        const liberty::LibCell& old_lc = lib.cell(nl.cell(cell).lib_cell);
        const liberty::LibCell& new_lc = lib.cell(upgrade->second);
        const netlist::NetId net = pin.net;
        if (net == netlist::kInvalidId) continue;
        double load_ff = 0.0;
        for (const PinId npid : nl.net(net).pins) {
          const netlist::Pin& np = nl.pin(npid);
          if (npid == pid || np.kind != netlist::PinKind::kCellPin) continue;
          load_ff += lib.cell(nl.cell(np.cell).lib_cell)
                         .pins[static_cast<std::size_t>(np.lib_pin)]
                         .cap_ff;
        }
        if (!positions.empty()) {
          load_ff += lib.wire_cap_ff_per_um() * sta.net_wirelength_um(net);
        }
        const double gain =
            (old_lc.drive_res_kohm - new_lc.drive_res_kohm) * load_ff +
            (old_lc.intrinsic_ps - new_lc.intrinsic_ps);
        if (gain < options.min_gain_ps) continue;

        nl.swap_lib_cell(cell, upgrade->second);
        touched.insert(cell);
        ++swaps_this_round;
        ++result.upsized_cells;
      }
    }
    if (swaps_this_round == 0) break;
  }

  // Final measurement if any swap happened after the last STA.
  if (result.upsized_cells > 0) {
    sta::StaOptions sta_options;
    sta_options.clock_period_ps = options.clock_period_ps;
    if (!positions.empty()) sta_options.cell_positions = &positions;
    sta_options.fault_key =
        sta::kStaKeySizing + static_cast<std::uint64_t>(options.max_rounds);
    sta::Sta sta(nl, sta_options);
    if (auto timed = sta.try_run(); !timed.has_value()) {
      return fault::Unexpected<fault::FlowError>(std::move(timed).error());
    }
    result.wns_after_ps = sta.wns_ps();
    result.tns_after_ns = sta.tns_ns();
  }
  PPACD_LOG_DEBUG("opt") << nl.name() << ": upsized " << result.upsized_cells
                         << " cells, WNS " << result.wns_before_ps << " -> "
                         << result.wns_after_ps << " ps";
  return result;
}

}  // namespace ppacd::opt
