#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "place/floorplan.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"
#include "util/rng.hpp"

namespace ppacd::place {
namespace {

using netlist::Netlist;

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

Netlist small_design(int cells = 500) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = cells;
  return gen::generate(lib(), spec);
}

TEST(Floorplan, RespectsUtilizationAndAspectRatio) {
  FloorplanOptions options;
  options.utilization = 0.5;
  options.aspect_ratio = 2.0;
  const Floorplan fp = Floorplan::create(1000.0, 1.4, options);
  // Core area >= cell area / utilization (rounded up to rows).
  EXPECT_GE(fp.core.area(), 1000.0 / 0.5 - 1e-6);
  EXPECT_NEAR(fp.core.height() / fp.core.width(), 2.0, 0.25);
  EXPECT_NEAR(fp.core.height(), fp.row_count * 1.4, 1e-9);
}

TEST(Floorplan, SquareByDefault) {
  const Floorplan fp = Floorplan::create(5000.0, 1.4, FloorplanOptions{});
  EXPECT_NEAR(fp.core.width(), fp.core.height(), fp.row_height_um * 2);
}

TEST(Floorplan, PortsLandOnBoundary) {
  Netlist nl = small_design(300);
  const Floorplan fp =
      Floorplan::create(nl.total_cell_area(), lib().row_height_um(), FloorplanOptions{});
  place_ports_on_boundary(nl, fp);
  for (std::size_t po = 0; po < nl.port_count(); ++po) {
    const geom::Point p = nl.port(static_cast<netlist::PortId>(po)).position;
    const bool on_x_edge = std::fabs(p.x - fp.core.lx) < 1e-9 ||
                           std::fabs(p.x - fp.core.ux) < 1e-9;
    const bool on_y_edge = std::fabs(p.y - fp.core.ly) < 1e-9 ||
                           std::fabs(p.y - fp.core.uy) < 1e-9;
    EXPECT_TRUE(on_x_edge || on_y_edge) << "port " << po;
    EXPECT_TRUE(fp.core.contains(p));
  }
}

TEST(Model, ObjectLayoutAndFixedPorts) {
  Netlist nl = small_design(300);
  const Floorplan fp =
      Floorplan::create(nl.total_cell_area(), lib().row_height_um(), FloorplanOptions{});
  place_ports_on_boundary(nl, fp);
  const PlaceModel model = make_place_model(nl, fp);
  ASSERT_EQ(model.objects.size(), nl.cell_count() + nl.port_count());
  for (std::size_t i = 0; i < nl.cell_count(); ++i) {
    EXPECT_FALSE(model.objects[i].fixed);
    EXPECT_GT(model.objects[i].width_um, 0.0);
  }
  for (std::size_t i = nl.cell_count(); i < model.objects.size(); ++i) {
    EXPECT_TRUE(model.objects[i].fixed);
  }
  EXPECT_EQ(model.movable_count(), nl.cell_count());
  EXPECT_NEAR(model.movable_area(), nl.total_cell_area(), 1e-6);
}

TEST(Model, ClockNetExcluded) {
  Netlist nl = small_design(300);
  const Floorplan fp =
      Floorplan::create(nl.total_cell_area(), lib().row_height_um(), FloorplanOptions{});
  const PlaceModel model = make_place_model(nl, fp);
  std::size_t placeable = 0;
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    const auto& net = nl.net(static_cast<netlist::NetId>(ni));
    if (!net.is_clock && net.pins.size() >= 2) ++placeable;
  }
  EXPECT_EQ(model.nets.size(), placeable);
}

TEST(Model, IoWeightScaling) {
  Netlist nl = small_design(300);
  const Floorplan fp =
      Floorplan::create(nl.total_cell_area(), lib().row_height_um(), FloorplanOptions{});
  const PlaceModel plain = make_place_model(nl, fp, 1.0);
  const PlaceModel scaled = make_place_model(nl, fp, 4.0);
  ASSERT_EQ(plain.nets.size(), scaled.nets.size());
  bool any_scaled = false;
  for (std::size_t i = 0; i < plain.nets.size(); ++i) {
    const double ratio = scaled.nets[i].weight / plain.nets[i].weight;
    if (ratio > 3.9) any_scaled = true;
    else EXPECT_NEAR(ratio, 1.0, 1e-12);
  }
  EXPECT_TRUE(any_scaled);
}

TEST(Model, HpwlHandComputed) {
  PlaceModel model;
  model.core = geom::Rect::make(0, 0, 100, 100);
  model.objects.resize(3);
  PlaceNet net;
  net.weight = 2.0;
  net.objects = {0, 1, 2};
  model.nets.push_back(net);
  const Placement placement = {{0, 0}, {10, 5}, {4, 20}};
  EXPECT_DOUBLE_EQ(net_hpwl(model, placement, 0), 10.0 + 20.0);
  EXPECT_DOUBLE_EQ(total_hpwl(model, placement), 2.0 * 30.0);
}

struct PlacedDesign {
  explicit PlacedDesign(int cells, double util = 0.7) : nl(small_design(cells)) {
    FloorplanOptions fpo;
    fpo.utilization = util;
    fp = Floorplan::create(nl.total_cell_area(), lib().row_height_um(), fpo);
    place_ports_on_boundary(nl, fp);
    model = make_place_model(nl, fp);
  }
  Netlist nl;
  Floorplan fp;
  PlaceModel model;
};

TEST(GlobalPlacer, ProducesInCorePlacement) {
  PlacedDesign d(500);
  GlobalPlacer placer(d.model, GlobalPlacerOptions{});
  const PlaceResult result = placer.try_run(fault::DegradePolicy{}).value();
  ASSERT_EQ(result.placement.size(), d.model.objects.size());
  for (std::size_t i = 0; i < d.nl.cell_count(); ++i) {
    EXPECT_TRUE(d.fp.core.contains(result.placement[i])) << "cell " << i;
  }
  EXPECT_GT(result.iterations, 0);
  EXPECT_LT(result.overflow, 0.5);
}

TEST(GlobalPlacer, BeatsRandomPlacementOnHpwl) {
  PlacedDesign d(500);
  GlobalPlacer placer(d.model, GlobalPlacerOptions{});
  const PlaceResult result = placer.try_run(fault::DegradePolicy{}).value();

  util::Rng rng(7);
  Placement random(d.model.objects.size());
  for (std::size_t i = 0; i < random.size(); ++i) {
    random[i] = d.model.objects[i].fixed
                    ? d.model.objects[i].fixed_position
                    : geom::Point{rng.uniform(d.fp.core.lx, d.fp.core.ux),
                                  rng.uniform(d.fp.core.ly, d.fp.core.uy)};
  }
  EXPECT_LT(result.hpwl_um, 0.6 * total_hpwl(d.model, random));
}

TEST(GlobalPlacer, DeterministicForFixedSeed) {
  PlacedDesign d(300);
  GlobalPlacerOptions options;
  options.seed = 5;
  const PlaceResult a =
      GlobalPlacer(d.model, options).try_run(fault::DegradePolicy{}).value();
  const PlaceResult b =
      GlobalPlacer(d.model, options).try_run(fault::DegradePolicy{}).value();
  ASSERT_EQ(a.placement.size(), b.placement.size());
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.placement[i].x, b.placement[i].x);
    EXPECT_DOUBLE_EQ(a.placement[i].y, b.placement[i].y);
  }
}

TEST(GlobalPlacer, IncrementalStaysNearSeed) {
  PlacedDesign d(500);
  GlobalPlacer placer(d.model, GlobalPlacerOptions{});
  const PlaceResult full = placer.try_run(fault::DegradePolicy{}).value();

  // Seed: the converged placement. Incremental from it must not wander far.
  const PlaceResult inc =
      placer
          .try_run_incremental(full.placement, fault::DegradePolicy{})
          .value();
  double mean_move = 0.0;
  for (std::size_t i = 0; i < d.nl.cell_count(); ++i) {
    mean_move += geom::manhattan(full.placement[i], inc.placement[i]);
  }
  mean_move /= static_cast<double>(d.nl.cell_count());
  EXPECT_LT(mean_move, 0.25 * d.fp.core.half_perimeter());
  // And it should produce comparable or better wirelength.
  EXPECT_LT(inc.hpwl_um, 1.3 * full.hpwl_um);
}

TEST(GlobalPlacer, IncrementalImprovesClusterSeed) {
  // Seed every cell at the core center (worst-case cluster collapse):
  // incremental placement must spread the cells out and produce a real
  // placement (this is exactly Alg. 1's seeded-placement step).
  PlacedDesign d(500);
  Placement seed(d.model.objects.size(), d.fp.core.center());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    if (d.model.objects[i].fixed) seed[i] = d.model.objects[i].fixed_position;
  }
  GlobalPlacer placer(d.model, GlobalPlacerOptions{});
  const PlaceResult inc =
      placer.try_run_incremental(seed, fault::DegradePolicy{}).value();
  EXPECT_LT(inc.overflow, 0.6);
  // Cells actually moved off the center.
  double spread = 0.0;
  for (std::size_t i = 0; i < d.nl.cell_count(); ++i) {
    spread += geom::manhattan(inc.placement[i], d.fp.core.center());
  }
  EXPECT_GT(spread / static_cast<double>(d.nl.cell_count()),
            0.02 * d.fp.core.half_perimeter());
}

TEST(GlobalPlacer, RegionConstraintHonoured) {
  PlacedDesign d(300);
  // Fence the first 50 cells into the lower-left quadrant.
  const geom::Rect fence = geom::Rect::make(
      d.fp.core.lx, d.fp.core.ly, d.fp.core.center().x, d.fp.core.center().y);
  for (std::size_t i = 0; i < 50; ++i) d.model.objects[i].region = fence;
  GlobalPlacer placer(d.model, GlobalPlacerOptions{});
  const PlaceResult result = placer.try_run(fault::DegradePolicy{}).value();
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(fence.contains(result.placement[i])) << "cell " << i;
  }
}

TEST(Legalizer, NoOverlapsWithinRows) {
  PlacedDesign d(400, 0.6);
  GlobalPlacer placer(d.model, GlobalPlacerOptions{});
  const PlaceResult gp = placer.try_run(fault::DegradePolicy{}).value();
  const LegalizeResult lg = legalize(d.model, gp.placement);
  EXPECT_EQ(lg.failed_count, 0);

  // Group by row and check non-overlap.
  std::map<long, std::vector<std::size_t>> rows;
  for (std::size_t i = 0; i < d.nl.cell_count(); ++i) {
    rows[std::lround(lg.placement[i].y * 1000.0)].push_back(i);
  }
  for (auto& [y, cells] : rows) {
    std::sort(cells.begin(), cells.end(), [&](std::size_t a, std::size_t b) {
      return lg.placement[a].x < lg.placement[b].x;
    });
    for (std::size_t k = 1; k < cells.size(); ++k) {
      const auto& prev = d.model.objects[cells[k - 1]];
      const double prev_end =
          lg.placement[cells[k - 1]].x + prev.width_um * 0.5;
      const double next_start = lg.placement[cells[k]].x -
                                d.model.objects[cells[k]].width_um * 0.5;
      EXPECT_LE(prev_end, next_start + 1e-6);
    }
  }
}

TEST(Legalizer, CellsSnapToRowCenters) {
  PlacedDesign d(300, 0.6);
  const PlaceResult gp =
      GlobalPlacer(d.model, GlobalPlacerOptions{})
          .try_run(fault::DegradePolicy{})
          .value();
  const LegalizeResult lg = legalize(d.model, gp.placement);
  const double row_h = d.model.row_height_um;
  for (std::size_t i = 0; i < d.nl.cell_count(); ++i) {
    const double rel = (lg.placement[i].y - d.fp.core.ly) / row_h - 0.5;
    EXPECT_NEAR(rel, std::round(rel), 1e-6) << "cell " << i;
  }
}

TEST(Legalizer, DisplacementIsModest) {
  PlacedDesign d(400, 0.5);
  const PlaceResult gp =
      GlobalPlacer(d.model, GlobalPlacerOptions{})
          .try_run(fault::DegradePolicy{})
          .value();
  const LegalizeResult lg = legalize(d.model, gp.placement);
  const double mean_disp =
      lg.total_displacement_um / static_cast<double>(d.nl.cell_count());
  EXPECT_LT(mean_disp, 0.2 * d.fp.core.half_perimeter());
}

TEST(GlobalPlacer, BlockageRepelsCells) {
  PlacedDesign d(400, 0.5);
  // Block the right half of the core.
  PlaceObject notch;
  notch.blockage = true;
  notch.fixed = true;
  notch.width_um = d.fp.core.width() * 0.5;
  notch.height_um = d.fp.core.height();
  notch.fixed_position = {d.fp.core.ux - notch.width_um * 0.5,
                          d.fp.core.center().y};
  d.model.objects.push_back(notch);

  GlobalPlacer placer(d.model, GlobalPlacerOptions{});
  const PlaceResult result = placer.try_run(fault::DegradePolicy{}).value();
  // The blocked half should hold far less than half the cells.
  std::size_t in_blocked = 0;
  for (std::size_t i = 0; i < d.nl.cell_count(); ++i) {
    if (result.placement[i].x > d.fp.core.center().x) ++in_blocked;
  }
  EXPECT_LT(in_blocked, d.nl.cell_count() / 4);
}

TEST(GlobalPlacer, BlockageObjectsAreNotMoved) {
  PlacedDesign d(200, 0.5);
  PlaceObject notch;
  notch.blockage = true;
  notch.fixed = true;
  notch.width_um = 5.0;
  notch.height_um = 5.0;
  notch.fixed_position = d.fp.core.center();
  d.model.objects.push_back(notch);
  GlobalPlacer placer(d.model, GlobalPlacerOptions{});
  const PlaceResult result = placer.try_run(fault::DegradePolicy{}).value();
  const geom::Point placed = result.placement.back();
  EXPECT_DOUBLE_EQ(placed.x, d.fp.core.center().x);
  EXPECT_DOUBLE_EQ(placed.y, d.fp.core.center().y);
}

}  // namespace
}  // namespace ppacd::place
