#include "hier/rent.hpp"

#include <cassert>
#include <cmath>

namespace ppacd::hier {

std::vector<RentTerms> rent_terms(const netlist::Netlist& nl,
                                  const std::vector<std::int32_t>& assignment,
                                  std::int32_t cluster_count) {
  assert(assignment.size() == nl.cell_count());
  std::vector<RentTerms> terms(static_cast<std::size_t>(cluster_count));
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    const std::int32_t c = assignment[ci];
    assert(c >= 0 && c < cluster_count);
    ++terms[static_cast<std::size_t>(c)].size;
  }

  // Per net: external if it touches a port or more than one cluster. An
  // external net adds one edge to each cluster it touches (`last_net` marks
  // the clusters already counted for this net) and one external pin per cell
  // pin; an internal net's pins are all internal to its one cluster.
  std::vector<std::int32_t> last_net(static_cast<std::size_t>(cluster_count), -1);
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    const netlist::Net& net = nl.net(static_cast<netlist::NetId>(ni));
    if (net.is_clock) continue;
    bool external = false;
    std::int32_t first = -1;
    std::int64_t cell_pins = 0;
    for (const netlist::PinId pid : net.pins) {
      const netlist::Pin& pin = nl.pin(pid);
      if (pin.kind == netlist::PinKind::kTopPort) {
        external = true;
        continue;
      }
      const std::int32_t c = assignment[pin.cell.index()];
      if (first < 0) first = c;
      external = external || c != first;
      ++cell_pins;
    }
    if (!external) {
      if (first >= 0) terms[static_cast<std::size_t>(first)].internal_pins += cell_pins;
      continue;
    }
    for (const netlist::PinId pid : net.pins) {
      const netlist::Pin& pin = nl.pin(pid);
      if (pin.kind == netlist::PinKind::kTopPort) continue;
      const auto c = static_cast<std::size_t>(assignment[pin.cell.index()]);
      ++terms[c].external_pins;
      if (last_net[c] != static_cast<std::int32_t>(ni)) {
        last_net[c] = static_cast<std::int32_t>(ni);
        ++terms[c].external_edges;
      }
    }
  }

  for (RentTerms& t : terms) {
    const std::int64_t denom = t.internal_pins + t.external_pins;
    if (t.size <= 1 || denom == 0 || t.external_edges == 0) {
      // Degenerate: single-vertex clusters have ln|c|=0; clusters with no
      // external edges would give R = -inf. Both get the neutral value 1.
      t.rent = 1.0;
      continue;
    }
    t.rent = std::log(static_cast<double>(t.external_edges) /
                      static_cast<double>(denom)) /
                 std::log(static_cast<double>(t.size)) +
             1.0;
  }
  return terms;
}

double average_rent(const netlist::Netlist& nl,
                    const std::vector<std::int32_t>& assignment,
                    std::int32_t cluster_count) {
  const auto terms = rent_terms(nl, assignment, cluster_count);
  double weighted = 0.0;
  std::int64_t total = 0;
  for (const RentTerms& t : terms) {
    weighted += t.rent * static_cast<double>(t.size);
    total += t.size;
  }
  return total > 0 ? weighted / static_cast<double>(total) : 1.0;
}

}  // namespace ppacd::hier
