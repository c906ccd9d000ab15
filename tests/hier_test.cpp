#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <unordered_map>

#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "hier/dendrogram.hpp"
#include "hier/rent.hpp"
#include "util/rng.hpp"

namespace ppacd::hier {
namespace {

using netlist::CellId;
using netlist::ModuleId;
using netlist::NetId;
using netlist::Netlist;

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

/// Figure-2-style unbalanced hierarchy:
///   root -> {x1, a}, a -> {x2, x3}; x1 is one level shallower than x2/x3.
struct UnbalancedDesign {
  UnbalancedDesign() : nl(lib(), "top") {
    const auto inv = *lib().find("INV_X1");
    x1 = nl.add_module("x1", nl.root_module());
    a = nl.add_module("a", nl.root_module());
    x2 = nl.add_module("x2", a);
    x3 = nl.add_module("x3", a);
    c_x1 = nl.add_cell("c_x1", inv, x1);
    c_x2 = nl.add_cell("c_x2", inv, x2);
    c_x3 = nl.add_cell("c_x3", inv, x3);
  }
  Netlist nl;
  ModuleId x1, a, x2, x3;
  CellId c_x1, c_x2, c_x3;
};

TEST(Dendrogram, LevelizationReplicatesShallowLeaves) {
  UnbalancedDesign d;
  const Dendrogram dendro(d.nl);
  EXPECT_EQ(dendro.level_max(), 2);
  // x1 (level 1 leaf) must be replicated once, like node x1 in Figure 2.
  EXPECT_EQ(dendro.replicated_count(), 1u);
  int replicas = 0;
  for (const DendroNode& node : dendro.nodes()) {
    if (node.replica) {
      ++replicas;
      EXPECT_EQ(node.level, 2);
      EXPECT_EQ(node.cells.size(), 1u);  // x1's cell moved into the replica
    }
  }
  EXPECT_EQ(replicas, 1);
}

TEST(Dendrogram, ClusteringAtLevels) {
  UnbalancedDesign d;
  const Dendrogram dendro(d.nl);
  std::int32_t count = 0;
  const auto level1 = dendro.clustering_at(1, &count);
  EXPECT_EQ(count, 2);  // {x1}, {a = x2+x3}
  EXPECT_NE(level1[d.c_x1.index()],
            level1[d.c_x2.index()]);
  EXPECT_EQ(level1[d.c_x2.index()],
            level1[d.c_x3.index()]);

  const auto level2 = dendro.clustering_at(2, &count);
  EXPECT_EQ(count, 3);  // all leaves separate
}

TEST(Dendrogram, CellsInInternalModulesGetImplicitLeaf) {
  Netlist nl(lib(), "top");
  const auto inv = *lib().find("INV_X1");
  const ModuleId sub = nl.add_module("sub", nl.root_module());
  nl.add_module("subsub", sub);
  const CellId direct = nl.add_cell("direct", inv, sub);  // cell in internal module
  const Dendrogram dendro(nl);
  std::int32_t count = 0;
  const auto assignment = dendro.clustering_at(dendro.level_max(), &count);
  EXPECT_EQ(assignment[direct.index()] >= 0, true);
}

TEST(Rent, HandComputedTwoClusters) {
  Netlist nl(lib(), "t");
  const auto inv = *lib().find("INV_X1");
  const CellId a = nl.add_cell("a", inv, nl.root_module());
  const CellId b = nl.add_cell("b", inv, nl.root_module());
  const CellId c = nl.add_cell("c", inv, nl.root_module());
  const CellId d = nl.add_cell("d", inv, nl.root_module());
  auto connect2 = [&](CellId from, CellId to, const std::string& name) {
    const NetId net = nl.add_net(name);
    nl.connect(net, nl.cell_output_pin(from));
    nl.connect(net, nl.cell_pin(to, 0));
  };
  connect2(a, b, "n_ab");  // internal to cluster 0
  connect2(c, d, "n_cd");  // internal to cluster 1
  connect2(b, c, "n_bc");  // external

  const std::vector<std::int32_t> assignment = {0, 0, 1, 1};
  const auto terms = rent_terms(nl, assignment, 2);
  ASSERT_EQ(terms.size(), 2u);
  for (const RentTerms& t : terms) {
    EXPECT_EQ(t.size, 2);
    EXPECT_EQ(t.internal_pins, 2);
    EXPECT_EQ(t.external_pins, 1);
    EXPECT_EQ(t.external_edges, 1);
    EXPECT_NEAR(t.rent, std::log(1.0 / 3.0) / std::log(2.0) + 1.0, 1e-12);
  }
  EXPECT_NEAR(average_rent(nl, assignment, 2),
              std::log(1.0 / 3.0) / std::log(2.0) + 1.0, 1e-12);
}

TEST(Rent, SingletonClustersAreNeutral) {
  Netlist nl(lib(), "t");
  const auto inv = *lib().find("INV_X1");
  nl.add_cell("a", inv, nl.root_module());
  nl.add_cell("b", inv, nl.root_module());
  const std::vector<std::int32_t> assignment = {0, 1};
  const auto terms = rent_terms(nl, assignment, 2);
  EXPECT_DOUBLE_EQ(terms[0].rent, 1.0);
  EXPECT_DOUBLE_EQ(terms[1].rent, 1.0);
}

TEST(Rent, GoodClusteringBeatsRandom) {
  gen::DesignSpec spec = gen::design_spec("ariane");
  spec.target_cells = 1200;
  const Netlist nl = gen::generate(lib(), spec);

  // Hierarchy clustering vs a random assignment with the same cluster count.
  const HierClusteringResult good = hierarchy_clustering(nl);
  ASSERT_GT(good.cluster_count, 1);
  util::Rng rng(3);
  std::vector<std::int32_t> random(nl.cell_count());
  for (auto& c : random) {
    c = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(good.cluster_count)));
  }
  EXPECT_LT(average_rent(nl, good.cluster_of_cell, good.cluster_count),
            average_rent(nl, random, good.cluster_count));
}

/// Brute-force Rent tally: one std::unordered_map of pins per touched
/// cluster for every net, the form rent_terms used before its flat tally.
std::vector<RentTerms> reference_rent_terms(const Netlist& nl,
                                            const std::vector<std::int32_t>& assignment,
                                            std::int32_t cluster_count) {
  std::vector<RentTerms> terms(static_cast<std::size_t>(cluster_count));
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    ++terms[static_cast<std::size_t>(assignment[ci])].size;
  }
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    const netlist::Net& net = nl.net(static_cast<NetId>(ni));
    if (net.is_clock) continue;
    std::unordered_map<std::int32_t, std::int64_t> pins_in_cluster;
    bool touches_port = false;
    for (const netlist::PinId pid : net.pins) {
      const netlist::Pin& pin = nl.pin(pid);
      if (pin.kind == netlist::PinKind::kTopPort) {
        touches_port = true;
        continue;
      }
      ++pins_in_cluster[assignment[pin.cell.index()]];
    }
    const bool external = touches_port || pins_in_cluster.size() > 1;
    // lint:allow(unordered-iter): integer counters per cluster, order-free
    for (const auto& [cluster, pins] : pins_in_cluster) {
      RentTerms& t = terms[static_cast<std::size_t>(cluster)];
      if (external) {
        ++t.external_edges;
        t.external_pins += pins;
      } else {
        t.internal_pins += pins;
      }
    }
  }
  for (RentTerms& t : terms) {
    const std::int64_t denom = t.internal_pins + t.external_pins;
    if (t.size > 1 && denom > 0 && t.external_edges > 0) {
      t.rent = std::log(static_cast<double>(t.external_edges) /
                        static_cast<double>(denom)) /
                   std::log(static_cast<double>(t.size)) +
               1.0;
    }
  }
  return terms;
}

TEST(Rent, TermsMatchBruteForceTallyOnRandomAssignments) {
  gen::DesignSpec spec = gen::design_spec("jpeg");
  spec.target_cells = 500;
  const Netlist nl = gen::generate(lib(), spec);
  util::Rng rng(11);
  const auto cells = static_cast<std::int32_t>(nl.cell_count());
  for (const std::int32_t clusters : {1, 2, 7, 60, cells / 2, cells}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<std::int32_t> assignment(nl.cell_count());
      for (auto& c : assignment) {
        c = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(clusters)));
      }
      const auto got = rent_terms(nl, assignment, clusters);
      const auto want = reference_rent_terms(nl, assignment, clusters);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t c = 0; c < got.size(); ++c) {
        SCOPED_TRACE(::testing::Message() << clusters << " clusters, cluster " << c);
        EXPECT_EQ(got[c].external_edges, want[c].external_edges);
        EXPECT_EQ(got[c].external_pins, want[c].external_pins);
        EXPECT_EQ(got[c].internal_pins, want[c].internal_pins);
        EXPECT_EQ(got[c].size, want[c].size);
        EXPECT_EQ(std::memcmp(&got[c].rent, &want[c].rent, sizeof(double)), 0);
      }
    }
  }
}

TEST(HierClustering, ProducesValidAssignment) {
  gen::DesignSpec spec = gen::design_spec("jpeg");
  spec.target_cells = 800;
  const Netlist nl = gen::generate(lib(), spec);
  const HierClusteringResult result = hierarchy_clustering(nl);
  ASSERT_EQ(result.cluster_of_cell.size(), nl.cell_count());
  EXPECT_GE(result.cluster_count, 2);
  EXPECT_GE(result.chosen_level, 1);
  std::set<std::int32_t> used(result.cluster_of_cell.begin(),
                              result.cluster_of_cell.end());
  EXPECT_EQ(static_cast<std::int32_t>(used.size()), result.cluster_count);
  for (const std::int32_t c : result.cluster_of_cell) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, result.cluster_count);
  }
}

TEST(HierClustering, PicksMinimumRentLevel) {
  gen::DesignSpec spec = gen::design_spec("BlackParrot");
  spec.target_cells = 1500;
  const Netlist nl = gen::generate(lib(), spec);
  const HierClusteringResult result = hierarchy_clustering(nl);
  double best = std::numeric_limits<double>::infinity();
  for (const double r : result.level_rent) {
    if (!std::isnan(r)) best = std::min(best, r);
  }
  ASSERT_GE(result.chosen_level, 0);
  EXPECT_NEAR(result.level_rent[static_cast<std::size_t>(result.chosen_level)],
              best, 1e-12);
}

TEST(HierClustering, FlatDesignSingleCluster) {
  Netlist nl(lib(), "flat");
  const auto inv = *lib().find("INV_X1");
  nl.add_cell("a", inv, nl.root_module());
  nl.add_cell("b", inv, nl.root_module());
  const HierClusteringResult result = hierarchy_clustering(nl);
  EXPECT_EQ(result.cluster_count, 1);
  EXPECT_EQ(result.cluster_of_cell, (std::vector<std::int32_t>{0, 0}));
}

}  // namespace
}  // namespace ppacd::hier
