/// \file runner.cpp
/// \brief One measured run of a benchmark workload (driven by run.py).
///
/// Usage:
///   perfbench_runner --workload NAME --seed N [--mode flow|trace|setup]
///                    [--smoke]
///
/// --mode flow (default) generates the design, runs the workload's flow once
/// through the library's entry points (flow::try_run_*_flow, then
/// flow::try_evaluate_ppa unless the workload is place-only) and times it
/// from outside. After the timed region the run's output is validated with
/// the src/check validators at kFull: the netlist and the legalized
/// placement directly, the clustering and the routing by re-deriving them
/// from the same public calls (serially, which also cross-checks the
/// thread-count determinism contract) and requiring that the re-derived
/// cluster count, routed wirelength and overflow equal the run's bit for bit.
///
/// --mode trace additionally replays the same flow from this file, one
/// public layer call at a time, recording wall time, process CPU, peak RSS
/// (reset through /proc/self/clear_refs) and heap allocations (the
/// bench/alloc_count hook) per call; work counts come from the calls' return
/// values and the metrics registry snapshot. The replay's QoR must equal the
/// untimed flow's bit for bit.
///
/// --mode setup stops after the set-up (library, design generation, thread
/// pool start-up) and reports how long it took.
///
/// --smoke swaps the workload's design for a 400-instance aes so every flow
/// finishes in milliseconds (the benchmark's own tests).
///
/// Prints exactly one line on stdout, `PERFBENCH_RESULT <json>`, whose
/// "failures" array lists every error, degradation, check violation and
/// replay mismatch. Exit status 0 once that line is printed, 2 on bad
/// arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "check/check.hpp"
#include "check/cluster_check.hpp"
#include "check/netlist_check.hpp"
#include "check/place_check.hpp"
#include "check/route_check.hpp"
#include "cluster/clustered_netlist.hpp"
#include "cluster/fc_multilevel.hpp"
#include "cluster/ppa_costs.hpp"
#include "cts/cts.hpp"
#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "hier/dendrogram.hpp"
#include "liberty/library.hpp"
#include "observe/observe.hpp"
#include "place/floorplan.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"
#include "place/sharded.hpp"
#include "route/global_router.hpp"
#include "sta/activity.hpp"
#include "sta/power.hpp"
#include "sta/sta.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "vpr/vpr.hpp"

namespace {

using namespace ppacd;
using telemetry::Json;

// ---------------------------------------------------------------------------
// Process probes
// ---------------------------------------------------------------------------

/// CLOCK_MONOTONIC seconds.
double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// User + system CPU seconds of the whole process (all threads).
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

/// Resets the kernel's peak-RSS watermark (VmHWM) to the current RSS.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// Peak RSS (VmHWM) since the last reset, in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class FlowKind { kClustered, kDefault, kSharded };

struct Workload {
  const char* name;
  const char* design;
  FlowKind kind;
  int threads;
};

constexpr Workload kWorkloads[] = {
    {"mempool-ours-t4", "MemPool Group", FlowKind::kClustered, 4},
    {"mempool-ours-t1", "MemPool Group", FlowKind::kClustered, 1},
    {"mempool-default-t4", "MemPool Group", FlowKind::kDefault, 4},
    {"scale1m-sharded-t4", "scale-1m", FlowKind::kSharded, 4},
};

constexpr int kSmokeCells = 400;

bool place_only(const Workload& w) { return w.kind == FlowKind::kSharded; }

/// The flow_cli configuration of the same flow: OpenROAD personality, the
/// design's clock period, V-P&R above 30 instances (uniform shapes for the
/// sharded arm, Table 6's "Uniform"), 8 shards, checks off in the timed run.
flow::FlowOptions make_options(const Workload& w, const gen::DesignSpec& spec) {
  flow::FlowOptions options;
  options.tool = flow::Tool::kOpenRoadLike;
  options.cluster_method = flow::ClusterMethod::kPpaAware;
  options.shape_mode = w.kind == FlowKind::kSharded ? flow::ShapeMode::kUniform
                                                    : flow::ShapeMode::kVpr;
  options.clock_period_ps = spec.clock_period_ps;
  options.vpr.min_cluster_instances = 30;
  return options;
}

// ---------------------------------------------------------------------------
// QoR and run outputs
// ---------------------------------------------------------------------------

struct Qor {
  double hpwl_um = 0.0;
  double rwl_um = 0.0;
  double wns_ps = 0.0;
  double tns_ns = 0.0;
  double power_w = 0.0;
  int overflow_edges = 0;
  int clusters = 0;
};

/// Exact bit patterns of every QoR field, for bit-identity comparisons.
std::string qor_bits(const Qor& q) {
  std::string out;
  char buf[32];
  for (const double v : {q.hpwl_um, q.rwl_um, q.wns_ps, q.tns_ns, q.power_w}) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    std::snprintf(buf, sizeof buf, "%016" PRIx64 ":", bits);
    out += buf;
  }
  out += std::to_string(q.overflow_edges) + ":" + std::to_string(q.clusters);
  return out;
}

/// What the validators inspect.
struct Outputs {
  std::optional<cluster::ClusteredNetlist> clustered;
  place::PlaceModel model;  ///< the model the placement was legalized on
  place::Placement legal;   ///< legalized centers of every model object
  std::vector<geom::Point> positions;
  std::optional<route::RouteResult> routed;
  geom::Rect route_grid;
  Qor qor;
};

/// flow.cpp's make_floorplan: the core for the design, ports on its boundary.
place::Floorplan make_floorplan(netlist::Netlist& nl,
                                const flow::FlowOptions& options) {
  place::FloorplanOptions fpo;
  fpo.utilization = options.floorplan_utilization;
  const place::Floorplan fp = place::Floorplan::create(
      nl.total_cell_area(), nl.library().row_height_um(), fpo);
  place::place_ports_on_boundary(nl, fp);
  return fp;
}

// ---------------------------------------------------------------------------
// Layer clock: one entry per timed call into a layer's public functions
// ---------------------------------------------------------------------------

/// Every counter of the metrics registry's public snapshot, by name.
std::map<std::string, double> registry_counters() {
  std::map<std::string, double> out;
  const Json snapshot = telemetry::metrics().to_json();
  if (const Json* counters = snapshot.find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      if (value.is_number()) out[name] = value.as_double();
    }
  }
  return out;
}

struct PhaseStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t allocs = 0;
  std::map<std::string, double> counters;  ///< registry counter deltas
};

class LayerClock {
 public:
  explicit LayerClock(bool on) : on_(on) {}
  /// Phases keyed "layer" or "layer.phase".
  const std::map<std::string, PhaseStats>& phases() const { return phases_; }
  /// Wall seconds the scopes spent outside their timed regions: the probes
  /// (registry snapshots, peak-RSS reset and read, CPU and allocation
  /// reads) and the bookkeeping, i.e. what tracing adds to the replay.
  double overhead_s() const { return overhead_s_; }

  /// RAII scope timing one call (or a short group of calls) into a layer.
  class Scope {
   public:
    Scope(LayerClock& clock, std::string phase)
        : clock_(clock), phase_(std::move(phase)) {
      if (!clock_.on_) return;
      const double enter = mono_s();
      counters0_ = registry_counters();
      reset_peak_rss();
      allocs0_ = bench::alloc_snapshot().allocs;
      cpu0_ = cpu_s();
      wall0_ = mono_s();
      clock_.overhead_s_ += wall0_ - enter;
    }
    ~Scope() {
      if (!clock_.on_) return;
      const double stop = mono_s();
      const double wall = stop - wall0_;
      const double cpu = cpu_s() - cpu0_;
      const std::uint64_t allocs = bench::alloc_snapshot().allocs - allocs0_;
      PhaseStats& s = clock_.phases_[phase_];
      s.wall_s += wall;
      s.cpu_s += cpu;
      s.allocs += allocs;
      s.peak_rss_mb = std::max(s.peak_rss_mb, peak_rss_mb());
      for (const auto& [name, value] : registry_counters()) {
        const auto it = counters0_.find(name);
        s.counters[name] += value - (it == counters0_.end() ? 0.0 : it->second);
      }
      clock_.overhead_s_ += mono_s() - stop;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock& clock_;
    std::string phase_;
    double wall0_ = 0.0;
    double cpu0_ = 0.0;
    std::uint64_t allocs0_ = 0;
    std::map<std::string, double> counters0_;
  };

 private:
  bool on_;
  std::map<std::string, PhaseStats> phases_;
  double overhead_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Re-derivations shared by the replay and the untraced run's validation.
// Each mirrors flow.cpp statement for statement so results are bit-identical.
// ---------------------------------------------------------------------------

struct ClusterStep {
  cluster::ClusteredNetlist clustered;
  cluster::FcResult fc;
};

/// run_clustering (kPpaAware) + build_clustered_netlist.
std::optional<ClusterStep> derive_clustering(const netlist::Netlist& nl,
                                             const flow::FlowOptions& options,
                                             LayerClock& clock,
                                             std::vector<std::string>& failures) {
  std::vector<double> timing_cost;
  std::vector<double> theta;
  hier::HierClusteringResult hier_result;
  {
    LayerClock::Scope scope(clock, "cluster.extract");
    sta::StaOptions sta_options;
    sta_options.clock_period_ps = options.clock_period_ps;
    sta::Sta sta(nl, sta_options);
    auto sta_run = sta.try_run();
    if (!sta_run.has_value()) {
      failures.push_back("clustering STA failed: " + sta_run.error().code);
      return std::nullopt;
    }
    timing_cost = cluster::net_timing_costs(nl, sta, options.clock_period_ps,
                                            options.top_paths);
    const auto activities = sta::propagate_activity(nl, sta::ActivityOptions{});
    theta = cluster::net_switching_activity(nl, activities);
    if (nl.has_hierarchy()) hier_result = hier::hierarchy_clustering(nl);
  }
  LayerClock::Scope scope(clock, "cluster.fc");
  cluster::FcPpaInputs inputs;
  if (!timing_cost.empty()) inputs.net_timing_cost = &timing_cost;
  inputs.net_switching = &theta;
  if (nl.has_hierarchy() && hier_result.cluster_count > 1) {
    inputs.grouping = &hier_result.cluster_of_cell;
  }
  cluster::FcOptions fc = options.fc;
  fc.seed = options.seed;
  ClusterStep step;
  step.fc = cluster::fc_multilevel_cluster(nl, inputs, fc);
  step.clustered = cluster::build_clustered_netlist(nl, step.fc.cluster_of_cell,
                                                    step.fc.cluster_count);
  return step;
}

/// The router call of try_evaluate_ppa, over the same grid.
fault::Expected<route::RouteResult, fault::FlowError> derive_routing(
    const netlist::Netlist& nl, const std::vector<geom::Point>& positions,
    const flow::FlowOptions& options, geom::Rect* grid) {
  geom::BBox box;
  for (const geom::Point& p : positions) box.expand(p);
  for (std::size_t po = 0; po < nl.port_count(); ++po) {
    box.expand(nl.port(static_cast<netlist::PortId>(po)).position);
  }
  *grid = box.rect();
  route::RouteOptions route_options = options.router;
  route_options.observe_stream = true;
  route::GlobalRouter router(nl, positions, *grid, route_options);
  return router.try_run(options.degrade);
}

/// Placement of every flat-model object: cells from `positions`, fixed
/// objects at their fixed positions.
place::Placement placement_from_positions(const place::PlaceModel& model,
                                          const std::vector<geom::Point>& positions) {
  place::Placement placement(model.objects.size());
  for (std::size_t i = 0; i < model.objects.size(); ++i) {
    placement[i] = i < positions.size() ? positions[i]
                                        : model.objects[i].fixed_position;
  }
  return placement;
}

// ---------------------------------------------------------------------------
// Traced replay of the workload's flow
// ---------------------------------------------------------------------------

struct ReplayCounts {
  int fc_levels = 0;
  int clusters = 0;
  double vpr_candidates = 0.0;
  int clusters_shaped = 0;
  double place_overflow = 0.0;
  double shard_imbalance = 0.0;
  int shard_fallbacks = 0;
  int route_failed_nets = 0;
};

void degrade_if(const std::string& code, const char* what) {
  if (!code.empty()) {
    fault::record_degradation({"place.solve", code, "early-stop", what});
  }
}

std::optional<Outputs> replay(netlist::Netlist& nl, const Workload& w,
                              const flow::FlowOptions& options, LayerClock& clock,
                              ReplayCounts& counts,
                              std::vector<std::string>& failures) {
  Outputs out;
  place::Floorplan fp;
  {
    LayerClock::Scope scope(clock, "place.floorplan");
    fp = make_floorplan(nl, options);
  }

  place::LegalizeResult legal;
  if (w.kind == FlowKind::kDefault) {
    place::PlaceResult placed;
    {
      LayerClock::Scope scope(clock, "place.flat");
      out.model = place::make_place_model(nl, fp);
      place::GlobalPlacerOptions placer_options = options.placer;
      placer_options.seed = options.seed;
      placer_options.trace_iterations = true;
      place::GlobalPlacer placer(out.model, placer_options);
      auto placed_or = placer.try_run(options.degrade);
      if (!placed_or.has_value()) {
        failures.push_back("flow error: " + placed_or.error().code);
        return std::nullopt;
      }
      placed = std::move(placed_or).value();
      degrade_if(placed.degrade_code, "flat global placement");
    }
    counts.place_overflow = placed.overflow;
    LayerClock::Scope scope(clock, "place.legalize");
    legal = place::legalize(out.model, placed.placement);
  } else {
    std::optional<ClusterStep> step = derive_clustering(nl, options, clock, failures);
    if (!step) return std::nullopt;
    counts.fc_levels = step->fc.levels;
    counts.clusters = step->fc.cluster_count;
    out.qor.clusters = step->fc.cluster_count;
    cluster::ClusteredNetlist& clustered = step->clustered;

    if (options.shape_mode == flow::ShapeMode::kVpr) {
      LayerClock::Scope scope(clock, "vpr");
      auto stats = vpr::try_select_cluster_shapes(nl, clustered, options.vpr,
                                                  nullptr, options.degrade);
      if (!stats.has_value()) {
        failures.push_back("flow error: " + stats.error().code);
        return std::nullopt;
      }
      counts.vpr_candidates = stats.value().vpr_runs;
      counts.clusters_shaped = stats.value().clusters_shaped;
    }

    place::PlaceResult seed_placed;
    std::vector<geom::Point> seeded_cells;
    {
      LayerClock::Scope scope(clock, "place.seed");
      const double io_scale = options.tool == flow::Tool::kOpenRoadLike
                                  ? options.io_weight_scale
                                  : 1.0;
      const place::PlaceModel cluster_model =
          cluster::make_cluster_place_model(clustered, nl, fp, io_scale);
      place::GlobalPlacerOptions seed_options = options.placer;
      seed_options.seed = options.seed;
      seed_options.spread_mode = place::SpreadMode::kBisection;
      seed_options.trace_iterations = true;
      place::GlobalPlacer seed_placer(cluster_model, seed_options);
      auto seed_or = seed_placer.try_run(options.degrade);
      if (!seed_or.has_value()) {
        failures.push_back("flow error: " + seed_or.error().code);
        return std::nullopt;
      }
      seed_placed = std::move(seed_or).value();
      degrade_if(seed_placed.degrade_code, "cluster seed placement");
      seeded_cells = cluster::induce_cell_positions(
          clustered, nl, seed_placed.placement, options.scatter_seed, options.seed);
    }

    place::Placement flat_placed;
    {
      LayerClock::Scope scope(clock, "place.flat");
      std::vector<std::int32_t> shard_of_object;
      place::RegionPartition partition;
      if (w.kind == FlowKind::kSharded) {
        std::vector<place::ShardGroup> groups;
        groups.reserve(clustered.cluster_count());
        for (const cluster::ClusterId ci : clustered.cluster_ids()) {
          place::ShardGroup group;
          group.center = seed_placed.placement[ci.index()];
          group.rect = cluster::cluster_region(clustered, ci, seed_placed.placement);
          group.weight =
              static_cast<std::int64_t>(clustered.clusters[ci].cells.size());
          groups.push_back(group);
        }
        partition = place::partition_regions(groups, fp.core, options.sharding.shards);
      }
      out.model = place::make_place_model(nl, fp);
      const place::Placement seed_flat = placement_from_positions(out.model, seeded_cells);
      place::GlobalPlacerOptions inc_options = options.placer;
      inc_options.seed = options.seed;
      inc_options.trace_iterations = true;
      if (w.kind == FlowKind::kSharded) {
        shard_of_object.assign(out.model.objects.size(), -1);
        for (std::size_t i = 0; i < nl.cell_count(); ++i) {
          const cluster::ClusterId ci =
              clustered.cluster_of_cell[static_cast<netlist::CellId>(i)];
          shard_of_object[i] = partition.shard_of_group[ci.index()];
        }
        auto sharded_or = place::try_place_sharded(
            out.model, seed_flat, shard_of_object, partition, options.sharding,
            inc_options, options.degrade);
        if (!sharded_or.has_value()) {
          failures.push_back("flow error: " + sharded_or.error().code);
          return std::nullopt;
        }
        place::ShardedPlaceResult sharded = std::move(sharded_or).value();
        counts.place_overflow = sharded.overflow;
        std::int64_t max_movables = 0;
        std::int64_t sum_movables = 0;
        for (const place::ShardStat& stat : sharded.shards) {
          counts.shard_fallbacks += stat.fell_back ? 1 : 0;
          max_movables = std::max(max_movables, stat.movables);
          sum_movables += stat.movables;
        }
        if (sum_movables > 0) {
          counts.shard_imbalance =
              static_cast<double>(max_movables) * static_cast<double>(sharded.shards.size()) /
              static_cast<double>(sum_movables);
        }
        flat_placed = std::move(sharded.placement);
      } else {
        place::GlobalPlacer flat_placer(out.model, inc_options);
        auto incremental_or = flat_placer.try_run_incremental(seed_flat, options.degrade);
        if (!incremental_or.has_value()) {
          failures.push_back("flow error: " + incremental_or.error().code);
          return std::nullopt;
        }
        place::PlaceResult incremental = std::move(incremental_or).value();
        degrade_if(incremental.degrade_code, "incremental flat placement");
        counts.place_overflow = incremental.overflow;
        flat_placed = std::move(incremental.placement);
      }
    }
    // The OpenROAD personality sets no fences, so flow.cpp's unfenced copy
    // of the flat model equals the model itself.
    LayerClock::Scope scope(clock, "place.legalize");
    legal = place::legalize(out.model, flat_placed);
    out.clustered = std::move(clustered);
  }
  {
    LayerClock::Scope scope(clock, "place.legalize");
    out.legal = std::move(legal.placement);
    out.positions = place::cell_positions(nl, out.legal);
    out.qor.hpwl_um = place::netlist_hpwl(nl, out.positions);
  }
  if (place_only(w)) return out;

  // --- try_evaluate_ppa, call by call ----------------------------------------
  {
    LayerClock::Scope scope(clock, "route");
    auto routed_or = derive_routing(nl, out.positions, options, &out.route_grid);
    if (!routed_or.has_value()) {
      failures.push_back("flow error: " + routed_or.error().code);
      return std::nullopt;
    }
    out.routed = std::move(routed_or).value();
  }
  counts.route_failed_nets = out.routed->failed_nets;
  if (out.routed->failed_nets > 0) {
    fault::record_degradation({"route.maze", "route-maze-failed", "partial-routes",
                               std::to_string(out.routed->failed_nets) +
                                   " nets skipped after retries"});
  }
  out.qor.overflow_edges = out.routed->overflow_edges;

  cts::ClockTreeResult tree;
  {
    LayerClock::Scope scope(clock, "cts");
    tree = cts::synthesize_clock_tree(nl, out.positions, options.cts);
  }
  out.qor.rwl_um = out.routed->wirelength_um + tree.wirelength_um;

  LayerClock::Scope scope(clock, "sta");
  sta::StaOptions sta_options;
  sta_options.clock_period_ps = options.clock_period_ps;
  sta_options.cell_positions = &out.positions;
  sta_options.clock_arrivals_ps = &tree.insertion_delay_ps;
  sta_options.observe_stream = true;
  sta::Sta sta(nl, sta_options);
  auto sta_run = sta.try_run();
  if (!sta_run.has_value()) {
    failures.push_back("flow error: " + sta_run.error().code);
    return std::nullopt;
  }
  out.qor.wns_ps = sta.wns_ps();
  out.qor.tns_ns = sta.tns_ns();
  const auto activities = sta::propagate_activity(nl, sta::ActivityOptions{});
  const sta::PowerReport base =
      sta::compute_power(nl, activities, options.clock_period_ps, &out.positions);
  const liberty::Library& lib = nl.library();
  const double clock_toggle = 2.0;
  const double cts_clock_w = 0.5e-3 * lib.vdd() * lib.vdd() * tree.total_cap_ff *
                             clock_toggle / options.clock_period_ps * 1.10;
  double buffer_leakage_w = 0.0;
  if (const auto buf = lib.find(options.cts.buffer_cell)) {
    buffer_leakage_w = tree.buffer_count * lib.cell(*buf).leakage_uw * 1e-6;
  }
  out.qor.power_w = base.total_w - base.clock_w + cts_clock_w + buffer_leakage_w;
  return out;
}

// ---------------------------------------------------------------------------
// Untimed validation of a run's outputs
// ---------------------------------------------------------------------------

void record_check(const check::CheckResult& result, Json& checks,
                  std::vector<std::string>& failures) {
  checks.set(result.checker, Json(result.total_violations));
  if (result.ok()) return;
  std::string message = "check " + result.checker + ": " +
                        std::to_string(result.total_violations) + " violation(s)";
  if (!result.violations.empty()) {
    message += " (first: " + result.violations.front().code + " " +
               result.violations.front().message + ")";
  }
  failures.push_back(message);
}

void validate(const netlist::Netlist& nl, const Outputs& out,
              const flow::FlowOptions& options, Json& checks,
              std::vector<std::string>& failures) {
  const check::CheckLevel full = check::CheckLevel::kFull;
  record_check(check::check_netlist(nl, full), checks, failures);
  if (out.clustered) {
    record_check(check::check_clustering(nl, *out.clustered, full), checks, failures);
  }
  record_check(check::check_placement(out.model, out.legal, full), checks, failures);
  if (out.routed) {
    record_check(check::check_routing(nl, out.positions, out.route_grid, *out.routed,
                                      options.router, full),
                 checks, failures);
  }
}

/// Rebuilds the untraced run's outputs for validation: the placement from
/// its positions, the clustering and routing by re-derivation. Each
/// re-derived result must reproduce the run's own numbers.
Outputs rederive_outputs(netlist::Netlist& nl, const Workload& w,
                         const flow::FlowOptions& options, const flow::FlowResult& run,
                         std::vector<std::string>& failures) {
  Outputs out;
  LayerClock off(false);
  const place::Floorplan fp = make_floorplan(nl, options);
  out.model = place::make_place_model(nl, fp);
  out.positions = run.place.positions;
  out.legal = placement_from_positions(out.model, out.positions);
  if (w.kind != FlowKind::kDefault) {
    std::optional<ClusterStep> step = derive_clustering(nl, options, off, failures);
    if (step) {
      if (step->fc.cluster_count != run.place.cluster_count) {
        failures.push_back("re-derived clustering has " +
                           std::to_string(step->fc.cluster_count) +
                           " clusters, the run had " +
                           std::to_string(run.place.cluster_count));
      }
      out.clustered = std::move(step->clustered);
    }
  }
  if (!place_only(w)) {
    auto routed = derive_routing(nl, out.positions, options, &out.route_grid);
    if (!routed.has_value()) {
      failures.push_back("re-derived routing failed: " + routed.error().code);
    } else {
      out.routed = std::move(routed).value();
      const cts::ClockTreeResult tree =
          cts::synthesize_clock_tree(nl, out.positions, options.cts);
      const double rwl = out.routed->wirelength_um + tree.wirelength_um;
      if (rwl != run.ppa.rwl_um ||
          out.routed->overflow_edges != run.ppa.route_overflow_edges) {
        failures.push_back("re-derived routing differs from the run's");
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting helpers
// ---------------------------------------------------------------------------

Json qor_json(const Qor& q) {
  Json j = Json::object();
  j.set("hpwl_um", q.hpwl_um);
  j.set("rwl_um", q.rwl_um);
  j.set("wns_ps", q.wns_ps);
  j.set("tns_ns", q.tns_ns);
  j.set("power_mw", q.power_w * 1e3);
  j.set("overflow_edges", q.overflow_edges);
  j.set("clusters", q.clusters);
  return j;
}

Json provenance_json(int threads) {
  Json j = Json::object();
  j.set("build_type", PERFBENCH_BUILD_TYPE);
#if defined(PPACD_SIMD)
  j.set("simd", true);
#else
  j.set("simd", false);
#endif
#if defined(PPACD_TELEMETRY_DISABLED)
  j.set("telemetry_compiled", false);
#else
  j.set("telemetry_compiled", true);
#endif
  j.set("observe_compiled", observe::kCompiledIn);
  j.set("threads", threads);
  j.set("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.set("hardware_concurrency",
        static_cast<double>(std::thread::hardware_concurrency()));
  return j;
}

/// Fails the run on any logged FlowError or degradation.
void collect_fault_logs(std::vector<std::string>& failures) {
  for (const fault::FlowError& e : fault::error_log()) {
    failures.push_back("flow error: " + e.code + " at " + e.site);
  }
  for (const fault::Degradation& d : fault::degradation_log()) {
    failures.push_back("degradation: " + d.site + " (" + d.error_code + ") -> " +
                       d.fallback);
  }
}

void reset_logs() {
  fault::reset_log();
  check::reset_log();
}

struct TimedFlow {
  std::optional<flow::FlowResult> result;
  Qor qor;
  double flow_s = 0.0;
  double place_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// One untraced run through the library's flow entry points.
TimedFlow run_flow(netlist::Netlist& nl, const Workload& w,
                   const flow::FlowOptions& options,
                   std::vector<std::string>& failures) {
  TimedFlow t;
  reset_peak_rss();
  const double cpu0 = cpu_s();
  const double t0 = mono_s();
  auto result_or = w.kind == FlowKind::kDefault   ? flow::try_run_default_flow(nl, options)
                   : w.kind == FlowKind::kSharded ? flow::try_run_sharded_flow(nl, options)
                                                  : flow::try_run_clustered_flow(nl, options);
  const double t_place = mono_s();
  std::optional<flow::PpaOutcome> ppa;
  if (result_or.has_value() && !place_only(w)) {
    auto ppa_or = flow::try_evaluate_ppa(nl, result_or.value().place.positions, options);
    if (ppa_or.has_value()) {
      ppa = std::move(ppa_or).value();
    } else {
      failures.push_back("flow error: " + ppa_or.error().code + " at " +
                         ppa_or.error().site);
    }
  }
  t.flow_s = mono_s() - t0;
  t.cpu_s = cpu_s() - cpu0;
  t.peak_rss_mb = peak_rss_mb();
  t.place_s = t_place - t0;
  if (!result_or.has_value()) {
    failures.push_back("flow error: " + result_or.error().code + " at " +
                       result_or.error().site);
    return t;
  }
  if (!place_only(w) && !ppa) return t;  // the PPA error is already recorded
  t.result = std::move(result_or).value();
  if (ppa) t.result->ppa = *ppa;
  t.qor.hpwl_um = t.result->place.hpwl_um;
  t.qor.clusters = t.result->place.cluster_count;
  t.qor.rwl_um = t.result->ppa.rwl_um;
  t.qor.wns_ps = t.result->ppa.wns_ps;
  t.qor.tns_ns = t.result->ppa.tns_ns;
  t.qor.power_w = t.result->ppa.power_w;
  t.qor.overflow_edges = t.result->ppa.route_overflow_edges;
  return t;
}

/// Per-layer metrics of a traced replay. Layer totals sum the layer's
/// phases; counter deltas are taken around each phase only, so the nested
/// placer/router/STA runs inside V-P&R count towards `vpr`, not their own
/// layers. trace.overhead_frac compares the replay with itself minus the
/// clock's own time, so both sides run under the same heap and cache state.
Json layer_metrics(const LayerClock& clock, const ReplayCounts& counts,
                   const PhaseStats& gen, double traced_total_s) {
  const int lanes = exec::thread_count();
  std::map<std::string, PhaseStats> layers;
  PhaseStats all;
  for (const auto& [name, s] : clock.phases()) {
    for (PhaseStats* l : {&layers[name.substr(0, name.find('.'))], &all}) {
      l->wall_s += s.wall_s;
      l->cpu_s += s.cpu_s;
      l->allocs += s.allocs;
      l->peak_rss_mb = std::max(l->peak_rss_mb, s.peak_rss_mb);
      for (const auto& [counter, delta] : s.counters) l->counters[counter] += delta;
    }
  }
  auto wall = [&](const char* phase) {
    const auto it = clock.phases().find(phase);
    return it == clock.phases().end() ? 0.0 : it->second.wall_s;
  };
  auto counter = [&](const PhaseStats& s, const char* name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : it->second;
  };

  Json m = Json::object();
  m.set("gen.wall_s", gen.wall_s);
  m.set("gen.peak_rss_mb", gen.peak_rss_mb);
  for (const auto& [layer, l] : layers) {
    m.set(layer + ".wall_s", l.wall_s);
    m.set(layer + ".cpu_s", l.cpu_s);
    m.set(layer + ".lane_eff", l.wall_s > 0.0 ? l.cpu_s / (l.wall_s * lanes) : 0.0);
    m.set(layer + ".peak_rss_mb", l.peak_rss_mb);
    m.set(layer + ".allocs", static_cast<double>(l.allocs));
  }
  if (layers.count("cluster") != 0) {
    m.set("cluster.extract_s", wall("cluster.extract"));
    m.set("cluster.fc_s", wall("cluster.fc"));
    m.set("cluster.levels", counts.fc_levels);
    m.set("cluster.merges", counter(layers["cluster"], "cluster.fc.merges"));
    m.set("cluster.clusters", counts.clusters);
  }
  if (layers.count("vpr") != 0) {
    m.set("vpr.candidates", counts.vpr_candidates);
    m.set("vpr.clusters_shaped", counts.clusters_shaped);
    m.set("vpr.us_per_candidate",
          counts.vpr_candidates > 0 ? wall("vpr") * 1e6 / counts.vpr_candidates : 0.0);
  }
  const PhaseStats& place = layers["place"];
  m.set("place.seed_s", wall("place.seed"));
  m.set("place.flat_s", wall("place.flat"));
  m.set("place.legalize_s", wall("place.legalize"));
  m.set("place.iterations", counter(place, "place.gp.iterations"));
  m.set("place.overflow", counts.place_overflow);
  if (counts.shard_imbalance > 0.0) {
    m.set("place.shard_imbalance", counts.shard_imbalance);
    m.set("place.shard_fallbacks", counts.shard_fallbacks);
  }
  if (layers.count("route") != 0) {
    const PhaseStats& route = layers["route"];
    const double nets = counter(route, "route.nets.routed");
    m.set("route.nets", nets);
    m.set("route.reroutes", counter(route, "route.maze.reroutes"));
    m.set("route.rrr_rounds", counter(route, "route.rrr.rounds"));
    m.set("route.failed_nets", counts.route_failed_nets);
    m.set("route.us_per_net", nets > 0 ? route.wall_s * 1e6 / nets : 0.0);
  }
  if (layers.count("sta") != 0) {
    // Every STA run of the replay: clustering's timing costs, V-P&R's
    // nested sweeps and the post-route sign-off.
    m.set("sta.runs", counter(all, "sta.runs"));
  }
  m.set("exec.lanes", lanes);
  m.set("exec.tasks", counter(all, "exec.tasks.executed"));
  m.set("exec.steals", counter(all, "exec.steal.count"));
  m.set("trace.overhead_frac",
        traced_total_s / (traced_total_s - clock.overhead_s()) - 1.0);
  m.set("trace.coverage_frac", all.wall_s / traced_total_s);
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N "
               "[--mode flow|trace|setup] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const double start = mono_s();
  std::string workload_name;
  std::string mode = "flow";
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) workload_name = argv[++i];
    else if (arg == "--mode" && has_value) mode = argv[++i];
    else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--smoke") smoke = true;
    else return usage();
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || !have_seed || (mode != "flow" && mode != "trace" && mode != "setup")) {
    return usage();
  }
  const Workload& w = *workload;
  const bool traced = mode == "trace";

  // --- Set-up: library, design, thread pool ------------------------------------
  telemetry::set_enabled(false);
  observe::recorder().set_enabled(false);
  fault::clear_plan();

  PhaseStats gen_stats;
  const double gen0 = mono_s();
  reset_peak_rss();
  const liberty::Library lib = liberty::Library::nangate45_like();
  gen::DesignSpec spec = gen::design_spec(smoke ? "aes" : w.design);
  if (smoke) spec.target_cells = kSmokeCells;
  spec.seed = seed;
  netlist::Netlist nl = gen::generate(lib, spec);
  gen_stats.wall_s = mono_s() - gen0;
  gen_stats.peak_rss_mb = peak_rss_mb();

  exec::set_thread_count(w.threads);
  exec::parallel_for(0, static_cast<std::size_t>(w.threads), 1, [](std::size_t) {});
  const double setup_s = mono_s() - start;

  if (mode == "setup") {
    Json result = Json::object();
    result.set("mode", mode);
    result.set("setup_s", setup_s);
    result.set("gen_s", gen_stats.wall_s);
    result.set("instances", nl.cell_count());
    std::printf("PERFBENCH_RESULT %s\n", result.dump().c_str());
    return 0;
  }

  const flow::FlowOptions options = make_options(w, spec);
  std::vector<std::string> failures;
  Json checks = Json::object();
  reset_logs();

  // --- Timed untraced run -------------------------------------------------------
  TimedFlow timed = run_flow(nl, w, options, failures);
  collect_fault_logs(failures);

  Json result = Json::object();
  result.set("mode", mode);
  result.set("workload", w.name);
  result.set("design", spec.name);
  result.set("instances", nl.cell_count());
  result.set("seed", static_cast<double>(seed));
  result.set("threads", w.threads);
  result.set("setup_s", setup_s);
  result.set("gen_s", gen_stats.wall_s);
  result.set("flow_s", timed.flow_s);
  result.set("place_s", timed.place_s);
  result.set("flow_cpu_s", timed.cpu_s);
  result.set("peak_rss_mb", timed.peak_rss_mb);
  result.set("place_only", place_only(w));
  result.set("qor", qor_json(timed.qor));
  result.set("qor_bits", qor_bits(timed.qor));
  result.set("provenance", provenance_json(w.threads));

  if (timed.result && !traced) {
    // Validation runs serially: a re-derivation at one lane must reproduce
    // the run at any lane count (the determinism contract).
    reset_logs();
    exec::set_thread_count(1);
    const Outputs out = rederive_outputs(nl, w, options, *timed.result, failures);
    validate(nl, out, options, checks, failures);
    collect_fault_logs(failures);
  } else if (timed.result && traced) {
    reset_logs();
    LayerClock clock(true);
    ReplayCounts counts;
    const double t0 = mono_s();
    std::optional<Outputs> out = replay(nl, w, options, clock, counts, failures);
    const double traced_total = mono_s() - t0;
    collect_fault_logs(failures);
    if (out) {
      result.set("replay_qor_bits", qor_bits(out->qor));
      if (qor_bits(out->qor) != qor_bits(timed.qor)) {
        failures.push_back("traced replay QoR differs from the flow's: " +
                           qor_bits(out->qor) + " vs " + qor_bits(timed.qor));
      }
      result.set("layers", layer_metrics(clock, counts, gen_stats, traced_total));
      reset_logs();
      validate(nl, *out, options, checks, failures);
      collect_fault_logs(failures);
    }
  }

  Json failure_list = Json::array();
  for (const std::string& f : failures) failure_list.push_back(Json(f));
  result.set("checks", checks);
  result.set("failures", failure_list);
  std::printf("PERFBENCH_RESULT %s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}
