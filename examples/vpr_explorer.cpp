/// \file vpr_explorer.cpp
/// \brief Virtualized P&R walkthrough (Figure 3): pick one cluster of a
/// design, induce its sub-netlist, and print the full 20-candidate shape
/// sweep with Cost_HPWL (Eq. 4), Cost_Congestion (Eq. 5) and TotalCost.
///
///   ./vpr_explorer [design-name]   (default: ariane)
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/clustered_netlist.hpp"
#include "cluster/fc_multilevel.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "netlist/subnetlist.hpp"
#include "vpr/vpr.hpp"

int main(int argc, char** argv) {
  using namespace ppacd;
  const liberty::Library lib = liberty::Library::nangate45_like();
  const std::string name = argc > 1 ? argv[1] : "ariane";
  const gen::DesignSpec spec = gen::design_spec(name);
  const netlist::Netlist design = gen::generate(lib, spec);

  // Cluster the netlist and pick the largest cluster.
  cluster::FcOptions fc;
  fc.target_cluster_count =
      std::max(8, static_cast<int>(design.cell_count()) / 100);
  const cluster::FcResult fc_result =
      cluster::fc_multilevel_cluster(design, cluster::FcPpaInputs{}, fc);
  const cluster::ClusteredNetlist clustered = cluster::build_clustered_netlist(
      design, fc_result.cluster_of_cell, fc_result.cluster_count);
  cluster::ClusterId biggest(0);
  for (const cluster::ClusterId ci : clustered.cluster_ids()) {
    if (clustered.clusters[ci].cells.size() >
        clustered.clusters[biggest].cells.size()) {
      biggest = ci;
    }
  }
  const cluster::Cluster& target = clustered.clusters[biggest];
  const netlist::SubNetlist sub =
      netlist::extract_subnetlist(design, target.cells);
  std::printf("design %s: %d clusters; exploring the largest (%zu cells, "
              "%zu boundary nets -> %zu IO ports in the sub-netlist)\n\n",
              name.c_str(), fc_result.cluster_count, target.cells.size(),
              sub.boundary_net_count, sub.netlist.port_count());

  const vpr::VprOptions options;
  const vpr::VprResult result = vpr::try_run_vpr(sub.netlist, options).value();
  std::printf("%-6s %-6s %-12s %-12s %-10s\n", "AR", "util", "Cost_HPWL",
              "Cost_Cong", "TotalCost");
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const vpr::ShapeCandidate& c = result.candidates[i];
    std::printf("%-6.2f %-6.2f %-12.4f %-12.4f %-10.4f%s\n",
                c.shape.aspect_ratio, c.shape.utilization, c.hpwl_cost,
                c.congestion_cost, c.total_cost,
                i == result.best_index ? "  <== best" : "");
  }
  std::printf("\nThe winning (AR, utilization) defines this cluster's .lef\n"
              "footprint in the seed placement (Alg. 1 line 13). The GNN of\n"
              "Section 3.2 predicts the TotalCost column ~%zux faster than\n"
              "running the %zu virtual P&Rs.\n",
              result.candidates.size(), result.candidates.size());
  return 0;
}
