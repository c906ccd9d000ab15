/// \file report.hpp
/// \brief Human-readable timing reports (OpenSTA `report_checks` substitute).
#pragma once

#include <string>

#include "sta/sta.hpp"

namespace ppacd::sta {

/// Full pin name: "cell/PIN" for cell pins, the port name for ports.
std::string pin_name(const netlist::Netlist& netlist, netlist::PinId pin);

/// OpenSTA-style per-path report for the `max_paths` worst endpoints:
/// startpoint, endpoint, pin-by-pin arrival trace, required time and slack.
/// `sta.try_run()` must have succeeded.
std::string report_checks(const netlist::Netlist& netlist, const Sta& sta,
                          std::size_t max_paths = 3);

/// One-line design summary: WNS / TNS / endpoint and violation counts.
std::string report_summary(const netlist::Netlist& netlist, const Sta& sta);

}  // namespace ppacd::sta
