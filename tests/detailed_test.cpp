#include <gtest/gtest.h>

#include <map>

#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "place/detailed.hpp"
#include "place/floorplan.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"

namespace ppacd::place {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

struct LegalDesign {
  explicit LegalDesign(int cells = 400) {
    gen::DesignSpec spec = gen::design_spec("aes");
    spec.target_cells = cells;
    nl_storage = gen::generate(lib(), spec);
    FloorplanOptions fpo;
    fpo.utilization = 0.6;
    fp = Floorplan::create(nl_storage->total_cell_area(), lib().row_height_um(), fpo);
    place_ports_on_boundary(*nl_storage, fp);
    model = make_place_model(*nl_storage, fp);
    const PlaceResult gp =
        GlobalPlacer(model, GlobalPlacerOptions{})
            .try_run(fault::DegradePolicy{})
            .value();
    legal = legalize(model, gp.placement);
  }
  std::optional<netlist::Netlist> nl_storage;
  Floorplan fp;
  PlaceModel model;
  LegalizeResult legal;
};

void expect_no_row_overlaps(const PlaceModel& model, const Placement& placement) {
  std::map<long, std::vector<std::size_t>> rows;
  for (std::size_t i = 0; i < model.objects.size(); ++i) {
    if (model.objects[i].fixed) continue;
    rows[std::lround(placement[i].y * 1e6)].push_back(i);
  }
  for (auto& [y, cells] : rows) {
    std::sort(cells.begin(), cells.end(), [&](std::size_t a, std::size_t b) {
      return placement[a].x < placement[b].x;
    });
    for (std::size_t k = 1; k < cells.size(); ++k) {
      const double prev_end = placement[cells[k - 1]].x +
                              model.objects[cells[k - 1]].width_um * 0.5;
      const double next_start =
          placement[cells[k]].x - model.objects[cells[k]].width_um * 0.5;
      ASSERT_LE(prev_end, next_start + 1e-6);
    }
  }
}

TEST(DetailedPlace, NeverWorsensHpwl) {
  LegalDesign d;
  const DetailedResult result =
      detailed_place(d.model, d.legal.placement, DetailedOptions{});
  EXPECT_LE(result.hpwl_after_um, result.hpwl_before_um + 1e-9);
}

TEST(DetailedPlace, ActuallyImproves) {
  LegalDesign d;
  const DetailedResult result =
      detailed_place(d.model, d.legal.placement, DetailedOptions{});
  // A greedy legalization always leaves reorderable windows.
  EXPECT_GT(result.moves, 0);
  EXPECT_LT(result.hpwl_after_um, result.hpwl_before_um);
}

TEST(DetailedPlace, PreservesLegality) {
  LegalDesign d;
  const DetailedResult result =
      detailed_place(d.model, d.legal.placement, DetailedOptions{});
  expect_no_row_overlaps(d.model, result.placement);
  // Rows unchanged: y coordinates must be identical.
  for (std::size_t i = 0; i < d.model.objects.size(); ++i) {
    if (d.model.objects[i].fixed) continue;
    EXPECT_DOUBLE_EQ(result.placement[i].y, d.legal.placement[i].y);
  }
}

TEST(DetailedPlace, FixedObjectsUntouched) {
  LegalDesign d;
  const DetailedResult result =
      detailed_place(d.model, d.legal.placement, DetailedOptions{});
  for (std::size_t i = 0; i < d.model.objects.size(); ++i) {
    if (!d.model.objects[i].fixed) continue;
    EXPECT_DOUBLE_EQ(result.placement[i].x, d.legal.placement[i].x);
    EXPECT_DOUBLE_EQ(result.placement[i].y, d.legal.placement[i].y);
  }
}

TEST(DetailedPlace, LargerWindowAtLeastAsGood) {
  LegalDesign d;
  DetailedOptions w2;
  w2.window = 2;
  w2.passes = 1;
  DetailedOptions w4;
  w4.window = 4;
  w4.passes = 1;
  const DetailedResult r2 = detailed_place(d.model, d.legal.placement, w2);
  const DetailedResult r4 = detailed_place(d.model, d.legal.placement, w4);
  // Window-4 permutations strictly contain window-2 swaps per window, so a
  // single pass should do at least as well (allow tiny slack for greedy
  // ordering artifacts).
  EXPECT_LE(r4.hpwl_after_um, r2.hpwl_after_um * 1.02);
}

TEST(DetailedPlace, IdempotentOnConvergedInput) {
  LegalDesign d;
  DetailedOptions options;
  options.passes = 4;
  const DetailedResult first =
      detailed_place(d.model, d.legal.placement, options);
  const DetailedResult second =
      detailed_place(d.model, first.placement, options);
  EXPECT_NEAR(second.hpwl_after_um, first.hpwl_after_um,
              1e-6 * first.hpwl_after_um);
}

}  // namespace
}  // namespace ppacd::place
