/// \file bench_shape_study.cpp
/// \brief Paper section 5 (ongoing work): effect of non-rectangular cluster
/// footprints. For sample clusters of ariane/jpeg, compares the best
/// rectangular V-P&R candidate against L-shaped dies (a corner notch of
/// 15/25/35 % of the gross area, modeled as a placement blockage), at the
/// same usable utilization.
#include <cstdio>

#include "cluster/clustered_netlist.hpp"
#include "cluster/fc_multilevel.hpp"
#include "common.hpp"
#include "netlist/subnetlist.hpp"
#include "vpr/vpr.hpp"

int main() {
  using namespace ppacd;
  util::Table table("Cluster footprint study: rectangle vs L-shape (TotalCost)");
  table.set_header({"Design", "Cluster", "#Cells", "Rect best", "L 15%", "L 25%",
                    "L 35%", "Winner"});
  util::CsvWriter csv;
  csv.set_header({"design", "cluster", "cells", "rect_best", "l15", "l25", "l35"});

  for (const char* name : {"ariane", "jpeg"}) {
    const gen::DesignSpec spec = gen::design_spec(name);
    const netlist::Netlist nl = bench::make_design(spec);
    cluster::FcOptions fc;
    fc.target_cluster_count =
        std::max(8, static_cast<int>(nl.cell_count()) / 120);
    fc.max_cluster_area_factor = 3.0;
    const cluster::FcResult fc_result =
        cluster::fc_multilevel_cluster(nl, cluster::FcPpaInputs{}, fc);
    const cluster::ClusteredNetlist clustered = cluster::build_clustered_netlist(
        nl, fc_result.cluster_of_cell, fc_result.cluster_count);

    // The three largest clusters.
    std::vector<cluster::ClusterId> order;
    order.reserve(clustered.cluster_count());
    for (const cluster::ClusterId c : clustered.cluster_ids()) order.push_back(c);
    std::sort(order.begin(), order.end(),
              [&](cluster::ClusterId a, cluster::ClusterId b) {
      return clustered.clusters[a].cells.size() > clustered.clusters[b].cells.size();
    });

    const vpr::VprOptions options;
    for (int k = 0; k < 3 && k < static_cast<int>(order.size()); ++k) {
      const cluster::Cluster& c = clustered.clusters[order[static_cast<std::size_t>(k)]];
      const netlist::SubNetlist sub = netlist::extract_subnetlist(nl, c.cells);

      const vpr::VprResult rect =
          vpr::try_run_vpr(sub.netlist, options).value();
      const cluster::ClusterShape base = rect.best().shape;
      double best_l = 1e18;
      double l_costs[3];
      const double notches[3] = {0.15, 0.25, 0.35};
      for (int v = 0; v < 3; ++v) {
        l_costs[v] =
            vpr::evaluate_l_shape(sub.netlist, base, notches[v], options)
                .total_cost;
        best_l = std::min(best_l, l_costs[v]);
      }
      table.add_row({name, std::to_string(k), std::to_string(c.cells.size()),
                     bench::fmt(rect.best().total_cost, 4),
                     bench::fmt(l_costs[0], 4), bench::fmt(l_costs[1], 4),
                     bench::fmt(l_costs[2], 4),
                     rect.best().total_cost <= best_l ? "rect" : "L"});
      csv.add_row({name, std::to_string(k), std::to_string(c.cells.size()),
                   bench::fmt(rect.best().total_cost, 5), bench::fmt(l_costs[0], 5),
                   bench::fmt(l_costs[1], 5), bench::fmt(l_costs[2], 5)});
    }
  }
  table.print();
  bench::write_results(csv, "shape_study");
  std::printf("\nThe paper leaves non-rectangular footprints as future work;\n"
              "this study shows how the existing V-P&R cost compares them.\n"
              "L-shapes pay a longer boundary (more HPWL) for floorplan\n"
              "flexibility the single-cluster view cannot credit, so the\n"
              "rectangle usually wins in isolation.\n");
  return 0;
}
