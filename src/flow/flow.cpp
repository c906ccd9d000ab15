#include "flow/flow.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "flow/report.hpp"

#include "check/cluster_check.hpp"
#include "check/netlist_check.hpp"
#include "check/place_check.hpp"
#include "check/route_check.hpp"
#include "cluster/clustered_netlist.hpp"
#include "cluster/community.hpp"
#include "cluster/graph.hpp"
#include "cluster/ppa_costs.hpp"
#include "hier/dendrogram.hpp"
#include "place/floorplan.hpp"
#include "place/detailed.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"
#include "opt/buffering.hpp"
#include "opt/sizing.hpp"
#include "sta/activity.hpp"
#include "sta/power.hpp"
#include "sta/sta.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ppacd::flow {

namespace {

/// Runs one inter-phase validator under a "flow.check" span and funnels the
/// findings into the check log / telemetry. `make_result` is only invoked
/// when checking is enabled, so the validators cost nothing at kOff.
template <typename MakeResult>
void run_check(const FlowOptions& options, MakeResult&& make_result) {
  if (options.check_level == check::CheckLevel::kOff) return;
  PPACD_SPAN(span, "flow.check");
  const check::CheckResult result = make_result(options.check_level);
  PPACD_SPAN_ATTR(span, "checker", result.checker);
  PPACD_SPAN_ATTR(span, "violations", result.total_violations);
  check::report(result);
}

place::Floorplan make_floorplan(netlist::Netlist& nl, const FlowOptions& options) {
  place::FloorplanOptions fpo;
  fpo.utilization = options.floorplan_utilization;
  const place::Floorplan fp = place::Floorplan::create(
      nl.total_cell_area(), nl.library().row_height_um(), fpo);
  place::place_ports_on_boundary(nl, fp);
  return fp;
}

/// Clustering per the selected method; fills cluster assignment + count.
struct ClusteringOutcome {
  std::vector<std::int32_t> assignment;
  std::int32_t count = 0;
};

fault::Expected<ClusteringOutcome, fault::FlowError> run_clustering(
    const netlist::Netlist& nl, const FlowOptions& options) {
  ClusteringOutcome out;
  switch (options.cluster_method) {
    case ClusterMethod::kPpaAware: {
      // Alg. 1 lines 2-9: hierarchy grouping + timing + switching costs.
      std::vector<double> timing_cost;
      std::vector<double> theta;
      hier::HierClusteringResult hier_result;
      {
        PPACD_SPAN(span, "flow.extract");
        sta::StaOptions sta_options;
        sta_options.clock_period_ps = options.clock_period_ps;
        sta_options.fault_key = sta::kStaKeyClustering;
        sta::Sta sta(nl, sta_options);
        auto sta_run = [&] {
          PPACD_SPAN(sta_span, "flow.extract.sta");
          return sta.try_run();
        }();
        if (sta_run.has_value()) {
          PPACD_SPAN(costs_span, "flow.extract.timing_costs");
          timing_cost = cluster::net_timing_costs(
              nl, sta, options.clock_period_ps, options.top_paths);
        } else if (options.degrade.sta_fallback_hpwl) {
          // Cluster without timing costs (connectivity + switching only).
          fault::record_degradation({"sta.arrival", sta_run.error().code,
                                     "hpwl-only",
                                     "clustering timing costs unavailable"});
        } else {
          return fault::Unexpected<fault::FlowError>(std::move(sta_run).error());
        }
        {
          PPACD_SPAN(activity_span, "flow.extract.activity");
          const auto activities =
              sta::propagate_activity(nl, sta::ActivityOptions{});
          theta = cluster::net_switching_activity(nl, activities);
        }
        if (nl.has_hierarchy()) {
          PPACD_SPAN(hier_span, "flow.extract.hier");
          hier_result = hier::hierarchy_clustering(nl);
        }
        PPACD_SPAN_ATTR(span, "hier_clusters", hier_result.cluster_count);
      }
      cluster::FcPpaInputs inputs;
      if (!timing_cost.empty()) inputs.net_timing_cost = &timing_cost;
      inputs.net_switching = &theta;
      if (nl.has_hierarchy() && hier_result.cluster_count > 1) {
        inputs.grouping = &hier_result.cluster_of_cell;
      }
      cluster::FcOptions fc = options.fc;
      fc.seed = options.seed;
      const cluster::FcResult result = cluster::fc_multilevel_cluster(nl, inputs, fc);
      out.assignment = result.cluster_of_cell;
      out.count = result.cluster_count;
      break;
    }
    case ClusterMethod::kMfc: {
      cluster::FcOptions fc = options.fc;
      fc.seed = options.seed;
      fc.use_grouping = false;
      fc.use_timing = false;
      fc.use_switching = false;
      const cluster::FcResult result =
          cluster::fc_multilevel_cluster(nl, cluster::FcPpaInputs{}, fc);
      out.assignment = result.cluster_of_cell;
      out.count = result.cluster_count;
      break;
    }
    case ClusterMethod::kLeiden:
    case ClusterMethod::kLouvainBlob: {
      const cluster::Graph graph = cluster::clique_expand(nl);
      cluster::CommunityOptions community_options;
      community_options.seed = options.seed;
      community_options.min_community_size = 8;  // avoid degenerate blobs
      const cluster::CommunityResult result =
          options.cluster_method == ClusterMethod::kLeiden
              ? cluster::leiden(graph, community_options)
              : cluster::louvain(graph, community_options);
      out.assignment = result.community;
      out.count = result.community_count;
      break;
    }
  }
  return out;
}

fault::Expected<void, fault::FlowError> apply_shapes(
    const netlist::Netlist& nl, cluster::ClusteredNetlist& clustered,
    const FlowOptions& options, PlaceOutcome& outcome) {
  switch (options.shape_mode) {
    case ShapeMode::kUniform:
      return {};  // the build-time default is utilization 0.9, AR 1.0
    case ShapeMode::kRandom: {
      util::Rng rng(options.seed ^ 0x5eedu);
      const auto candidates = vpr::candidate_shapes(options.vpr);
      for (const cluster::ClusterId ci : clustered.cluster_ids()) {
        if (static_cast<int>(clustered.clusters[ci].cells.size()) <=
            options.vpr.min_cluster_instances) {
          continue;
        }
        set_cluster_shape(clustered, ci, candidates[rng.index(candidates.size())]);
        ++outcome.shaped_clusters;
      }
      return {};
    }
    case ShapeMode::kVpr: {
      auto stats = vpr::try_select_cluster_shapes(nl, clustered, options.vpr,
                                                  nullptr, options.degrade);
      if (!stats.has_value()) {
        return fault::Unexpected<fault::FlowError>(std::move(stats).error());
      }
      outcome.shaped_clusters = stats.value().clusters_shaped;
      return {};
    }
    case ShapeMode::kVprMl: {
      const vpr::ShapeCostPredictor* predictor = options.ml_predictor;
      if (predictor == nullptr) {
        // A missing predictor is itself an ML failure: fall back to exact
        // V-P&R under the same policy instead of asserting.
        if (!options.degrade.ml_fallback_to_vpr) {
          return fault::err("ml-predictor-missing", "ml.predict",
                            "ShapeMode::kVprMl requires ml_predictor");
        }
        fault::record_degradation({"ml.predict", "ml-predictor-missing",
                                   "vpr-exact", "predictor not configured"});
      }
      auto stats = vpr::try_select_cluster_shapes(nl, clustered, options.vpr,
                                                  predictor, options.degrade);
      if (!stats.has_value()) {
        return fault::Unexpected<fault::FlowError>(std::move(stats).error());
      }
      outcome.shaped_clusters = stats.value().clusters_shaped;
      return {};
    }
  }
  return {};
}

/// Optional repair stage: buffer high-fanout nets, upsize critical drivers,
/// then re-legalize the enlarged netlist (buffers were dropped at group
/// centroids). Updates positions and HPWL in `result`. An STA failure in
/// sizing keeps the netlist as sized so far under
/// `degrade.sta_fallback_hpwl` and is returned otherwise.
fault::Expected<void, fault::FlowError> run_timing_optimization(
    netlist::Netlist& nl, const place::Floorplan& fp, const FlowOptions& options,
    FlowResult& result) {
  PPACD_SPAN(span, "flow.timing_opt");
  span.anchor();
  opt::BufferingOptions buffering;
  opt::buffer_high_fanout(nl, result.place.positions, buffering);
  opt::SizingOptions sizing;
  sizing.clock_period_ps = options.clock_period_ps;
  auto sized = opt::resize_critical_cells(nl, result.place.positions, sizing);
  if (!sized.has_value()) {
    if (!options.degrade.sta_fallback_hpwl) {
      return fault::Unexpected<fault::FlowError>(std::move(sized).error());
    }
    fault::record_degradation({"sta.arrival", sized.error().code, "hpwl-only",
                               "gate sizing stopped"});
  }

  const place::PlaceModel model = place::make_place_model(nl, fp);
  place::Placement placement(model.objects.size());
  for (std::size_t i = 0; i < nl.cell_count(); ++i) {
    placement[i] = result.place.positions[i];
  }
  for (std::size_t i = nl.cell_count(); i < model.objects.size(); ++i) {
    placement[i] = model.objects[i].fixed_position;
  }
  const place::LegalizeResult legal = place::legalize(model, placement);
  result.place.positions = place::cell_positions(nl, legal.placement);
  result.place.hpwl_um = place::netlist_hpwl(nl, result.place.positions);

  // Buffering/sizing rewired nets and re-legalized: re-validate both.
  run_check(options, [&](check::CheckLevel level) {
    return check::check_netlist(nl, level);
  });
  run_check(options, [&](check::CheckLevel level) {
    return check::check_placement(model, legal.placement, level);
  });
  return {};
}

/// `options.placer` with the flow seed and per-iteration tracing: the
/// settings of every top-level placement the flow runs.
place::GlobalPlacerOptions flow_placer_options(const FlowOptions& options) {
  place::GlobalPlacerOptions placer_options = options.placer;
  placer_options.seed = options.seed;
  placer_options.trace_iterations = true;
  return placer_options;
}

/// Legalizes a global placement, then runs window-reordering detailed
/// placement on it when `options.detailed_placement` is set.
place::Placement legalize_and_refine(const place::PlaceModel& model,
                                     const place::Placement& placement,
                                     const FlowOptions& options) {
  place::LegalizeResult legal = place::legalize(model, placement);
  if (options.detailed_placement) {
    return place::detailed_place(model, legal.placement, place::DetailedOptions{})
        .placement;
  }
  return std::move(legal.placement);
}

/// Records the legalized cell positions and their HPWL in `result`, then
/// runs the optional timing-optimization stage.
fault::Expected<void, fault::FlowError> finish_placement(
    netlist::Netlist& nl, const place::Floorplan& fp,
    const place::Placement& legal, const FlowOptions& options,
    FlowResult& result) {
  result.place.positions = place::cell_positions(nl, legal);
  result.place.hpwl_um = place::netlist_hpwl(nl, result.place.positions);
  if (!options.timing_optimization) return {};
  return run_timing_optimization(nl, fp, options, result);
}

/// The flat-placement stage of the clustered flow. The public entry point
/// picks it: try_run_clustered_flow runs kIncremental, try_run_sharded_flow
/// runs kSharded.
enum class FlatStage { kIncremental, kSharded };

/// A flat stage's global placement (before legalization).
struct FlatPlacement {
  place::Placement placement;
  double overflow = 0.0;
  int iterations = 0;  ///< kIncremental only
};

/// One monolithic incremental pass from the seed. The Innovus-like tool
/// fences every V-P&R-shaped cluster to its placed footprint (Alg. 1
/// line 18) for this pass only; line 20 removes the fences, so the caller
/// legalizes on the unfenced `flat_model`.
fault::Expected<FlatPlacement, fault::FlowError> place_incremental(
    const place::PlaceModel& flat_model, const place::Placement& seed_flat,
    const cluster::ClusteredNetlist& clustered,
    const place::Placement& cluster_placement, const place::Floorplan& fp,
    const FlowOptions& options) {
  std::optional<place::PlaceModel> fenced;
  if (options.tool == Tool::kInnovusLike) {
    fenced = flat_model;
    for (const cluster::ClusterId ci : clustered.cluster_ids()) {
      const cluster::Cluster& c = clustered.clusters[ci];
      if (static_cast<int>(c.cells.size()) <= options.vpr.min_cluster_instances) {
        continue;
      }
      geom::Rect region = cluster_region(clustered, ci, cluster_placement);
      // Clip the fence to the core.
      region = geom::Rect::make(std::max(region.lx, fp.core.lx),
                                std::max(region.ly, fp.core.ly),
                                std::min(region.ux, fp.core.ux),
                                std::min(region.uy, fp.core.uy));
      if (region.width() <= 0.0 || region.height() <= 0.0) continue;
      for (const netlist::CellId cell : c.cells) {
        fenced->objects[cell.index()].region = region;
      }
    }
  }

  place::GlobalPlacer flat_placer(fenced ? *fenced : flat_model,
                                  flow_placer_options(options));
  auto incremental_or = flat_placer.try_run_incremental(seed_flat, options.degrade);
  if (!incremental_or.has_value()) {
    return fault::Unexpected<fault::FlowError>(std::move(incremental_or).error());
  }
  place::PlaceResult incremental = std::move(incremental_or).value();
  if (!incremental.degrade_code.empty()) {
    fault::record_degradation({"place.solve", incremental.degrade_code,
                               "early-stop", "incremental flat placement"});
  }
  return FlatPlacement{std::move(incremental.placement), incremental.overflow,
                       incremental.iterations};
}

/// Region-sharded placement from the seed: each placed cluster footprint is
/// one partitionable group, place::partition_regions maps the groups onto
/// `options.sharding.shards` floorplan regions, and place::try_place_sharded
/// places the regions independently and stitches them. Shards stand in for
/// fences, so this stage adds no Innovus-style region constraints. Fills the
/// shard counts of `outcome`.
fault::Expected<FlatPlacement, fault::FlowError> place_sharded(
    const netlist::Netlist& nl, const place::PlaceModel& flat_model,
    const place::Placement& seed_flat, const cluster::ClusteredNetlist& clustered,
    const place::Placement& cluster_placement, const place::Floorplan& fp,
    const FlowOptions& options, PlaceOutcome& outcome) {
  std::vector<place::ShardGroup> groups;
  groups.reserve(clustered.cluster_count());
  for (const cluster::ClusterId ci : clustered.cluster_ids()) {
    place::ShardGroup group;
    group.center = cluster_placement[ci.index()];
    group.rect = cluster_region(clustered, ci, cluster_placement);
    group.weight =
        static_cast<std::int64_t>(clustered.clusters[ci].cells.size());
    groups.push_back(group);
  }
  const place::RegionPartition partition =
      place::partition_regions(groups, fp.core, options.sharding.shards);
  outcome.shard_count = partition.shard_count();

  std::vector<std::int32_t> shard_of_object(flat_model.objects.size(), -1);
  for (std::size_t i = 0; i < nl.cell_count(); ++i) {
    const cluster::ClusterId ci =
        clustered.cluster_of_cell[static_cast<netlist::CellId>(i)];
    shard_of_object[i] = partition.shard_of_group[ci.index()];
  }

  auto sharded_or = place::try_place_sharded(
      flat_model, seed_flat, shard_of_object, partition, options.sharding,
      flow_placer_options(options), options.degrade);
  if (!sharded_or.has_value()) {
    return fault::Unexpected<fault::FlowError>(std::move(sharded_or).error());
  }
  place::ShardedPlaceResult sharded = std::move(sharded_or).value();
  for (const place::ShardStat& stat : sharded.shards) {
    outcome.shard_fallbacks += stat.fell_back ? 1 : 0;
  }
  return FlatPlacement{std::move(sharded.placement), sharded.overflow};
}

/// Algorithm 1 with a pluggable flat stage: netlist check, floorplan,
/// clustering (lines 2-10), cluster shapes (lines 12-13), cluster seed
/// placement and induced cell positions, then `stage` (lines 15-25), then
/// legalization, optional detailed placement, the placement check and
/// optional timing optimization.
fault::Expected<FlowResult, fault::FlowError> run_clustered(
    netlist::Netlist& nl, const FlowOptions& options, FlatStage stage) {
  FlowResult result;
  run_check(options, [&](check::CheckLevel level) {
    return check::check_netlist(nl, level);
  });
  const place::Floorplan fp = make_floorplan(nl, options);

  // --- Clustering (Alg. 1 lines 2-10) ----------------------------------------
  ClusteringOutcome clustering;
  cluster::ClusteredNetlist clustered;
  {
    PPACD_SPAN(span, "flow.cluster");
    span.anchor();
    util::ScopedTimer timer(result.place.clustering_seconds);
    auto clustering_or = run_clustering(nl, options);
    if (!clustering_or.has_value()) {
      return fault::Unexpected<fault::FlowError>(
          std::move(clustering_or).error());
    }
    clustering = std::move(clustering_or).value();
    clustered = cluster::build_clustered_netlist(nl, clustering.assignment,
                                                 clustering.count);
    PPACD_SPAN_ATTR(span, "method", to_string(options.cluster_method));
    PPACD_SPAN_ATTR(span, "clusters", clustering.count);
  }
  run_check(options, [&](check::CheckLevel level) {
    return check::check_clustering(nl, clustered, level);
  });
  result.place.cluster_count = clustering.count;

  // --- Cluster shapes (lines 12-13) -------------------------------------------
  {
    PPACD_SPAN(span, "flow.shape");
    span.anchor();
    util::ScopedTimer timer(result.place.shaping_seconds);
    auto shaped = apply_shapes(nl, clustered, options, result.place);
    if (!shaped.has_value()) {
      return fault::Unexpected<fault::FlowError>(std::move(shaped).error());
    }
    PPACD_SPAN_ATTR(span, "mode", to_string(options.shape_mode));
    PPACD_SPAN_ATTR(span, "shaped", result.place.shaped_clusters);
  }

  // --- Seed placement of the clustered netlist (lines 15-25) ------------------
  const bool sharded = stage == FlatStage::kSharded;
  place::Placement legal;
  {
  util::ScopedTimer placement_timer(result.place.placement_seconds);
  std::vector<geom::Point> seeded_cells;
  place::PlaceResult seed_placed;
  {
    PPACD_SPAN(span, "flow.seed_place");
    span.anchor();
    const double io_scale =
        options.tool == Tool::kOpenRoadLike ? options.io_weight_scale : 1.0;
    const place::PlaceModel cluster_model =
        cluster::make_cluster_place_model(clustered, nl, fp, io_scale);
    place::GlobalPlacerOptions seed_options = flow_placer_options(options);
    // Cluster macros cannot be untangled by cell shifting; use bisection.
    seed_options.spread_mode = place::SpreadMode::kBisection;
    place::GlobalPlacer seed_placer(cluster_model, seed_options);
    auto seed_or = seed_placer.try_run(options.degrade);
    if (!seed_or.has_value()) {
      return fault::Unexpected<fault::FlowError>(std::move(seed_or).error());
    }
    seed_placed = std::move(seed_or).value();
    if (!seed_placed.degrade_code.empty()) {
      fault::record_degradation({"place.solve", seed_placed.degrade_code,
                                 "early-stop", "cluster seed placement"});
    }

    // Place instances within their placed cluster footprints (or exactly at
    // the centers when scatter_seed is off).
    seeded_cells = cluster::induce_cell_positions(
        clustered, nl, seed_placed.placement, options.scatter_seed, options.seed);
    PPACD_SPAN_ATTR(span, "iterations", seed_placed.iterations);
  }

  // --- Flat stage from the induced seed ----------------------------------------
  PPACD_SPAN(flat_span, sharded ? "flow.sharded_place" : "flow.incremental_place");
  flat_span.anchor();
  const place::PlaceModel flat_model = place::make_place_model(nl, fp);
  place::Placement seed_flat(flat_model.objects.size());
  for (std::size_t i = 0; i < nl.cell_count(); ++i) seed_flat[i] = seeded_cells[i];
  for (std::size_t i = nl.cell_count(); i < flat_model.objects.size(); ++i) {
    seed_flat[i] = flat_model.objects[i].fixed_position;
  }
  auto flat_or = sharded
                     ? place_sharded(nl, flat_model, seed_flat, clustered,
                                     seed_placed.placement, fp, options, result.place)
                     : place_incremental(flat_model, seed_flat, clustered,
                                         seed_placed.placement, fp, options);
  if (!flat_or.has_value()) {
    return fault::Unexpected<fault::FlowError>(std::move(flat_or).error());
  }
  const FlatPlacement flat = std::move(flat_or).value();
  legal = legalize_and_refine(flat_model, flat.placement, options);
  run_check(options, [&](check::CheckLevel level) {
    return check::check_placement(flat_model, legal, level);
  });
  if (sharded) {
    PPACD_SPAN_ATTR(flat_span, "shards", result.place.shard_count);
    PPACD_SPAN_ATTR(flat_span, "fallbacks", result.place.shard_fallbacks);
  } else {
    PPACD_SPAN_ATTR(flat_span, "iterations", flat.iterations);
  }
  PPACD_SPAN_ATTR(flat_span, "overflow", flat.overflow);
  }  // placement scope (seed + flat stage)

  auto finished = finish_placement(nl, fp, legal, options, result);
  if (!finished.has_value()) {
    return fault::Unexpected<fault::FlowError>(std::move(finished).error());
  }
  if (sharded) {
    PPACD_LOG_INFO("flow") << nl.name() << ": sharded flow, "
                           << result.place.cluster_count << " clusters, "
                           << result.place.shard_count << " shards, HPWL "
                           << result.place.hpwl_um;
  } else {
    PPACD_LOG_INFO("flow") << nl.name() << ": clustered flow, "
                           << clustering.count << " clusters, HPWL "
                           << result.place.hpwl_um;
  }
  return result;
}

}  // namespace

fault::Expected<FlowResult, fault::FlowError> try_run_default_flow(
    netlist::Netlist& nl, const FlowOptions& options) {
  FlowResult result;
  run_check(options, [&](check::CheckLevel level) {
    return check::check_netlist(nl, level);
  });
  const place::Floorplan fp = make_floorplan(nl, options);
  const place::PlaceModel model = place::make_place_model(nl, fp);

  place::Placement legal;
  {
    PPACD_SPAN(span, "flow.global_place");
    span.anchor();
    util::ScopedTimer timer(result.place.placement_seconds);
    place::GlobalPlacer placer(model, flow_placer_options(options));
    auto placed_or = placer.try_run(options.degrade);
    if (!placed_or.has_value()) {
      return fault::Unexpected<fault::FlowError>(std::move(placed_or).error());
    }
    const place::PlaceResult placed = std::move(placed_or).value();
    if (!placed.degrade_code.empty()) {
      fault::record_degradation({"place.solve", placed.degrade_code,
                                 "early-stop", "flat global placement"});
    }
    legal = legalize_and_refine(model, placed.placement, options);
    PPACD_SPAN_ATTR(span, "iterations", placed.iterations);
    PPACD_SPAN_ATTR(span, "overflow", placed.overflow);
  }

  run_check(options, [&](check::CheckLevel level) {
    return check::check_placement(model, legal, level);
  });
  auto finished = finish_placement(nl, fp, legal, options, result);
  if (!finished.has_value()) {
    return fault::Unexpected<fault::FlowError>(std::move(finished).error());
  }
  return result;
}

fault::Expected<FlowResult, fault::FlowError> try_run_clustered_flow(
    netlist::Netlist& nl, const FlowOptions& options) {
  return run_clustered(nl, options, FlatStage::kIncremental);
}

fault::Expected<FlowResult, fault::FlowError> try_run_sharded_flow(
    netlist::Netlist& nl, const FlowOptions& options) {
  return run_clustered(nl, options, FlatStage::kSharded);
}

fault::Expected<PpaOutcome, fault::FlowError> try_evaluate_ppa(
    const netlist::Netlist& nl, const std::vector<geom::Point>& positions,
    const FlowOptions& options) {
  PpaOutcome out;

  // Routing grid spans the placement bounding box (the floorplan core).
  geom::BBox box;
  for (const geom::Point& p : positions) box.expand(p);
  for (std::size_t po = 0; po < nl.port_count(); ++po) {
    box.expand(nl.port(static_cast<netlist::PortId>(po)).position);
  }
  route::RouteResult routed;
  {
    PPACD_SPAN(span, "flow.route");
    span.anchor();
    // Top-level evaluation: stream router progress to the flight recorder
    // (nested shape-sweep routers keep the default, silent).
    route::RouteOptions route_options = options.router;
    route_options.observe_stream = true;
    route::GlobalRouter router(nl, positions, box.rect(), route_options);
    auto routed_or = router.try_run(options.degrade);
    if (!routed_or.has_value()) {
      return fault::Unexpected<fault::FlowError>(std::move(routed_or).error());
    }
    routed = std::move(routed_or).value();
    if (routed.failed_nets > 0) {
      std::ostringstream detail;
      detail << routed.failed_nets << " nets skipped after retries";
      fault::record_degradation({"route.maze", "route-maze-failed",
                                 "partial-routes", detail.str()});
    }
    PPACD_SPAN_ATTR(span, "overflow_edges", routed.overflow_edges);
    PPACD_SPAN_ATTR(span, "wirelength_um", routed.wirelength_um);
  }
  run_check(options, [&](check::CheckLevel level) {
    return check::check_routing(nl, positions, box.rect(), routed,
                                options.router, level);
  });
  out.route_overflow_edges = routed.overflow_edges;

  cts::ClockTreeResult tree;
  {
    PPACD_SPAN(span, "flow.cts");
    span.anchor();
    tree = cts::synthesize_clock_tree(nl, positions, options.cts);
    PPACD_SPAN_ATTR(span, "buffers", tree.buffer_count);
    PPACD_SPAN_ATTR(span, "skew_ps", tree.max_skew_ps);
  }
  out.clock_skew_ps = tree.max_skew_ps;
  out.rwl_um = routed.wirelength_um + tree.wirelength_um;

  PPACD_SPAN(sta_span, "flow.sta");
  sta_span.anchor();
  sta::StaOptions sta_options;
  sta_options.clock_period_ps = options.clock_period_ps;
  sta_options.cell_positions = &positions;
  sta_options.clock_arrivals_ps = &tree.insertion_delay_ps;
  sta_options.observe_stream = true;  // top-level evaluation only
  sta_options.fault_key = sta::kStaKeySignoff;
  sta::Sta sta(nl, sta_options);
  auto sta_run = sta.try_run();
  if (sta_run.has_value()) {
    out.wns_ps = sta.wns_ps();
    out.tns_ns = sta.tns_ns();
  } else if (options.degrade.sta_fallback_hpwl) {
    // HPWL-only cost: timing metrics report 0 (unavailable); power below
    // still comes from activity propagation, which needs no timing graph.
    fault::record_degradation({"sta.arrival", sta_run.error().code,
                               "hpwl-only", "WNS/TNS unavailable"});
    out.wns_ps = 0.0;
    out.tns_ns = 0.0;
  } else {
    return fault::Unexpected<fault::FlowError>(std::move(sta_run).error());
  }
  PPACD_SPAN_ATTR(sta_span, "wns_ps", out.wns_ps);
  PPACD_SPAN_ATTR(sta_span, "tns_ns", out.tns_ns);

  // Power: data nets from HPWL parasitics; the clock from the synthesized
  // tree (its switched capacitance replaces the flat clock net's HPWL cap).
  const auto activities = sta::propagate_activity(nl, sta::ActivityOptions{});
  const sta::PowerReport base =
      sta::compute_power(nl, activities, options.clock_period_ps, &positions);
  const liberty::Library& lib = nl.library();
  const double clock_toggle = 2.0;
  const double cts_clock_w = 0.5e-3 * lib.vdd() * lib.vdd() * tree.total_cap_ff *
                             clock_toggle / options.clock_period_ps * 1.10;
  double buffer_leakage_w = 0.0;
  if (const auto buf = lib.find(options.cts.buffer_cell)) {
    buffer_leakage_w = tree.buffer_count * lib.cell(*buf).leakage_uw * 1e-6;
  }
  out.power_w = base.total_w - base.clock_w + cts_clock_w + buffer_leakage_w;
  return out;
}

}  // namespace ppacd::flow
