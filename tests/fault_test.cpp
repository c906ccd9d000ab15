/// \file fault_test.cpp
/// \brief Fault-injection campaigns: every registered site x {error, timeout,
/// poison} under a seeded plan, asserting the flow either completes with the
/// degradations recorded (and every reported metric finite) or returns a
/// structured FlowError — never crashes, asserts, or leaks NaN into results.
///
/// Registered with ctest label "fault" so CI can run the campaign under the
/// asan-ubsan preset (`ctest -L fault`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "netlist/io.hpp"
#include "sta/sta.hpp"
#include "telemetry/telemetry.hpp"

namespace ppacd {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

/// Stub GNN predictor: finite, shape-dependent costs so the ml.predict site
/// is exercised (it only fires when a predictor is configured).
vpr::ShapeCostPredictor stub_predictor() {
  return [](const netlist::Netlist&,
            const std::vector<cluster::ClusterShape>& candidates) {
    std::vector<double> costs;
    costs.reserve(candidates.size());
    for (const cluster::ClusterShape& shape : candidates) {
      costs.push_back(100.0 + shape.aspect_ratio + shape.utilization);
    }
    return costs;
  };
}

struct CampaignOutcome {
  bool ok = false;
  fault::FlowError error;                       ///< set when !ok
  flow::FlowResult result;                      ///< set when ok
  flow::PpaOutcome ppa;                         ///< set when ok
  std::vector<fault::Degradation> degradations;
};

/// Runs the full clustered flow + PPA evaluation on a small generated design
/// under the given plan spec. Small configs keep the campaign fast; V-P&R and
/// the ML predictor are enabled so every site is reachable.
CampaignOutcome run_campaign(const std::string& spec,
                             const fault::DegradePolicy& policy = {},
                             bool use_ml = true, bool sharded = false) {
  auto plan = fault::parse_plan(spec);
  EXPECT_TRUE(plan.has_value()) << spec;
  fault::set_plan(plan.value());

  gen::DesignSpec design = gen::design_spec("aes");
  design.target_cells = 400;
  netlist::Netlist nl = gen::generate(lib(), design);

  flow::FlowOptions options;
  options.clock_period_ps = 550.0;
  options.fc.target_cluster_count = 8;
  options.vpr.min_cluster_instances = 20;
  options.shape_mode =
      use_ml ? flow::ShapeMode::kVprMl : flow::ShapeMode::kVpr;
  const vpr::ShapeCostPredictor predictor = stub_predictor();
  if (use_ml) options.ml_predictor = &predictor;
  options.degrade = policy;
  options.sharding.shards = 4;

  CampaignOutcome outcome;
  auto result = sharded ? flow::try_run_sharded_flow(nl, options)
                        : flow::try_run_clustered_flow(nl, options);
  if (!result.has_value()) {
    outcome.error = result.error();
  } else {
    outcome.result = std::move(result).value();
    auto ppa =
        flow::try_evaluate_ppa(nl, outcome.result.place.positions, options);
    if (!ppa.has_value()) {
      outcome.error = ppa.error();
    } else {
      outcome.ok = true;
      outcome.ppa = std::move(ppa).value();
    }
  }
  outcome.degradations = fault::degradation_log();
  fault::clear_plan();
  return outcome;
}

void expect_finite_metrics(const CampaignOutcome& outcome,
                           const std::string& campaign) {
  EXPECT_TRUE(std::isfinite(outcome.result.place.hpwl_um)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.rwl_um)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.wns_ps)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.tns_ns)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.power_w)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.clock_skew_ps)) << campaign;
  for (const geom::Point& p : outcome.result.place.positions) {
    ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y)) << campaign;
  }
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear_plan();
    fault::reset_log();
    telemetry::metrics().reset();
  }
  void TearDown() override {
    fault::clear_plan();
    fault::reset_log();
    telemetry::metrics().reset();
  }
};

// ---------------------------------------------------------------------------
// The campaign: every registered site x {error, timeout, poison}
// ---------------------------------------------------------------------------

TEST_F(FaultTest, CampaignEverySiteEveryKindDegradesGracefully) {
  const char* kinds[] = {"error", "timeout", "poison"};
  for (const std::string& site : fault::registered_sites()) {
    if (site == "io.read") continue;  // no deserialization in this flow;
                                      // covered by IoReadFaults below
    for (const char* kind : kinds) {
      const std::string spec = "seed=11;" + site + "=" + kind;
      fault::reset_log();
      telemetry::metrics().reset();
      // The ML predictor bypasses the exact sweep, so the vpr.shape_eval
      // site is only reachable in exact V-P&R mode; place.shard only fires
      // inside the sharded flow.
      const bool use_ml = site != "vpr.shape_eval";
      const bool sharded = site == "place.shard";
      const CampaignOutcome outcome =
          run_campaign(spec, fault::DegradePolicy{}, use_ml, sharded);
      // Default policies absorb every unconditional single-site fault: the
      // flow must complete, with the fallback on record and finite metrics.
      ASSERT_TRUE(outcome.ok)
          << spec << " -> " << outcome.error.code << ": "
          << outcome.error.message;
      EXPECT_FALSE(outcome.degradations.empty()) << spec;
      expect_finite_metrics(outcome, spec);
#if !defined(PPACD_TELEMETRY_DISABLED)
      // Telemetry attribution: the injection counter for this kind moved.
      EXPECT_GT(telemetry::metrics()
                    .counter(std::string("fault.injected.") + kind)
                    .value(),
                0)
          << spec;
#endif
    }
  }
}

TEST_F(FaultTest, CampaignTransientFaultsAcrossSites) {
  // Probabilistic (transient) faults at several sites at once: retries may
  // clear them, everything else degrades. Still must never crash or go
  // non-finite.
  const CampaignOutcome outcome = run_campaign(
      "seed=13;vpr.shape_eval=error%0.5;ml.predict=error%0.5;"
      "route.maze=error%0.3;sta.arrival=poison");
  ASSERT_TRUE(outcome.ok) << outcome.error.code;
  expect_finite_metrics(outcome, "transient campaign");
  EXPECT_FALSE(outcome.degradations.empty());
}

TEST_F(FaultTest, AllocFaultYieldsStructuredErrorOrDegradation) {
  // kAlloc simulates std::bad_alloc at the site. Depending on where the
  // throw lands it is either absorbed by a policy or surfaces as a
  // structured "alloc-failure" — both acceptable; crashing is not.
  for (const std::string& site : fault::registered_sites()) {
    if (site == "io.read") continue;
    fault::reset_log();
    const std::string spec = "seed=17;" + site + "=alloc@1";
    const CampaignOutcome outcome = run_campaign(
        spec, fault::DegradePolicy{}, true, site == "place.shard");
    if (outcome.ok) {
      expect_finite_metrics(outcome, spec);
    } else {
      EXPECT_FALSE(outcome.error.code.empty()) << spec;
    }
  }
}

// ---------------------------------------------------------------------------
// io.read: structured errors from deserialization
// ---------------------------------------------------------------------------

TEST_F(FaultTest, IoReadFaultsReturnStructuredErrors) {
  gen::DesignSpec design = gen::design_spec("aes");
  design.target_cells = 200;
  const netlist::Netlist nl = gen::generate(lib(), design);
  std::ostringstream text;
  netlist::write_verilog(nl, text);

  const struct {
    const char* kind;
    const char* code;
  } cases[] = {{"error", "io-read-failed"},
               {"timeout", "io-read-timeout"},
               {"alloc", "alloc-failure"}};
  for (const auto& c : cases) {
    auto plan = fault::parse_plan(std::string("io.read=") + c.kind);
    ASSERT_TRUE(plan.has_value());
    fault::set_plan(plan.value());
    std::istringstream in(text.str());
    auto loaded = netlist::try_read_verilog(in, lib());
    fault::clear_plan();
    ASSERT_FALSE(loaded.has_value()) << c.kind;
    EXPECT_EQ(loaded.error().code, c.code);
    EXPECT_EQ(loaded.error().site, "io.read");
  }

  // Clean plan: the same stream parses fine.
  std::istringstream in(text.str());
  auto loaded = netlist::try_read_verilog(in, lib());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded.value().cell_count(), nl.cell_count());
}

TEST_F(FaultTest, IoLoadMissingFileIsStructuredNotFatal) {
  auto loaded =
      netlist::try_load_verilog("/nonexistent/path/design.v", lib());
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, "io-open-failed");
}

// ---------------------------------------------------------------------------
// Policy gates: disabling a fallback turns the fault into a FlowError
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DisabledStaPolicyPropagatesStructuredError) {
  fault::DegradePolicy policy;
  policy.sta_fallback_hpwl = false;
  const CampaignOutcome outcome =
      run_campaign("seed=5;sta.arrival=error", policy);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error.code, "sta-arrival-failed");
  EXPECT_EQ(outcome.error.site, "sta.arrival");
}

TEST_F(FaultTest, SizingStaFaultDegradesOrPropagatesPerPolicy) {
  // Timing repair runs STA between sizing rounds; the sta.arrival site must
  // reach it like every other STA call of the flow.
  gen::DesignSpec design = gen::design_spec("aes");
  design.target_cells = 300;
  flow::FlowOptions options;
  options.timing_optimization = true;
  for (const bool fallback : {true, false}) {
    SCOPED_TRACE(fallback ? "sta_fallback_hpwl" : "no fallback");
    fault::reset_log();
    fault::set_plan(fault::parse_plan("seed=5;sta.arrival=error").value());
    options.degrade.sta_fallback_hpwl = fallback;
    netlist::Netlist nl = gen::generate(lib(), design);
    const auto result = flow::try_run_default_flow(nl, options);
    fault::clear_plan();
    if (fallback) {
      ASSERT_TRUE(result.has_value()) << result.error().code;
      const std::vector<fault::Degradation> want = {
          {"sta.arrival", "sta-arrival-failed", "hpwl-only",
           "gate sizing stopped"}};
      EXPECT_EQ(fault::degradation_log(), want);
    } else {
      ASSERT_FALSE(result.has_value());
      EXPECT_EQ(result.error().code, "sta-arrival-failed");
      EXPECT_EQ(result.error().site, "sta.arrival");
    }
  }
}

TEST_F(FaultTest, StaArrivalDecidesPerCallUnderProbabilisticPlan) {
  // sta.arrival is keyed by StaOptions::fault_key, one key per STA call, so
  // a 50% plan fails some calls of one run and not others — and a call's
  // outcome depends only on its key, not on the calls before it.
  gen::DesignSpec design = gen::design_spec("aes");
  design.target_cells = 300;
  const netlist::Netlist nl = gen::generate(lib(), design);
  fault::set_plan(fault::parse_plan("seed=2;sta.arrival=error%0.5").value());
  auto failed = [&nl](std::uint64_t key) {
    sta::StaOptions options;
    options.fault_key = key;
    sta::Sta sta(nl, options);
    const auto run = sta.try_run();
    if (!run.has_value()) {
      EXPECT_EQ(run.error().code, "sta-arrival-failed");
    }
    return !run.has_value();
  };
  std::vector<bool> first;
  for (std::uint64_t key = 0; key < 16; ++key) first.push_back(failed(key));
  for (std::uint64_t key = 16; key-- > 0;) {
    EXPECT_EQ(failed(key), first[key]) << "key " << key;
  }
  fault::clear_plan();
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 16);
  // The flow's own calls have distinct keys: under this plan the clustering
  // call and the sign-off call get different outcomes.
  EXPECT_NE(first[sta::kStaKeyClustering], first[sta::kStaKeySignoff]);
}

TEST_F(FaultTest, DisabledPlacePolicyPropagatesStructuredError) {
  fault::DegradePolicy policy;
  policy.place_early_stop = false;
  const CampaignOutcome outcome =
      run_campaign("seed=5;place.solve=error", policy);
  ASSERT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.error.code.empty());
  EXPECT_EQ(outcome.error.site, "place.solve");
}

TEST_F(FaultTest, ShardFaultFallsBackToSeedAndRecordsDegradation) {
  // One shard solve fails; the default policy keeps that shard at its VPR
  // seed placement and the sharded flow still completes with finite metrics.
  const CampaignOutcome outcome = run_campaign(
      "seed=5;place.shard=error@1", fault::DegradePolicy{}, true, true);
  ASSERT_TRUE(outcome.ok) << outcome.error.code << ": "
                          << outcome.error.message;
  bool saw_seed_fallback = false;
  for (const fault::Degradation& d : outcome.degradations) {
    if (d.site == "place.shard") {
      EXPECT_EQ(d.fallback, "vpr-seed");
      saw_seed_fallback = true;
    }
  }
  EXPECT_TRUE(saw_seed_fallback);
  expect_finite_metrics(outcome, "shard fallback");
}

TEST_F(FaultTest, DisabledShardPolicyPropagatesStructuredError) {
  fault::DegradePolicy policy;
  policy.shard_fallback_seed = false;
  const CampaignOutcome outcome =
      run_campaign("seed=5;place.shard=error", policy, true, true);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error.code, "place-shard-failed");
  EXPECT_EQ(outcome.error.site, "place.shard");
}

TEST_F(FaultTest, MlFallbackRecordsVprExactDegradation) {
  const CampaignOutcome outcome = run_campaign("seed=5;ml.predict=error");
  ASSERT_TRUE(outcome.ok) << outcome.error.code;
  bool saw_ml_fallback = false;
  for (const fault::Degradation& d : outcome.degradations) {
    if (d.site == "ml.predict") {
      EXPECT_EQ(d.fallback, "vpr-exact");
      saw_ml_fallback = true;
    }
  }
  EXPECT_TRUE(saw_ml_fallback);
}

// ---------------------------------------------------------------------------
// Plan parsing and the clean-path guarantee
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus.site=error",        // unknown site
      "sta.arrival=explode",     // unknown kind
      "sta.arrival",             // missing '=KIND'
      "seed=notanumber",         // bad seed
      "sta.arrival=error@zero",  // bad selector ordinal
      "sta.arrival=error%2.0",   // probability out of (0,1]
      "sta.arrival=error%0",     // probability out of (0,1]
  };
  for (const char* spec : bad) {
    auto plan = fault::parse_plan(spec);
    EXPECT_FALSE(plan.has_value()) << spec;
    if (!plan.has_value()) {
      EXPECT_FALSE(plan.error().code.empty()) << spec;
      EXPECT_FALSE(plan.error().message.empty()) << spec;
    }
  }
  // Empty / whitespace specs are a valid empty plan.
  auto empty = fault::parse_plan("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty.value().empty());
}

TEST_F(FaultTest, NoPlanMeansNoTriggers) {
  fault::clear_plan();
  EXPECT_FALSE(fault::plan_active());
  for (const std::string& site : fault::registered_sites()) {
    EXPECT_FALSE(fault::trigger(site, 0).has_value()) << site;
    EXPECT_FALSE(fault::trigger(site, 42).has_value()) << site;
  }
}

TEST_F(FaultTest, TriggerIsDeterministicPerKey) {
  auto plan = fault::parse_plan("seed=21;route.maze=error%0.5");
  ASSERT_TRUE(plan.has_value());
  fault::set_plan(plan.value());
  // The decision for a key is a pure function of (seed, site, key, attempt):
  // re-querying in any order reproduces it exactly.
  std::vector<bool> first;
  for (std::uint64_t key = 0; key < 64; ++key) {
    first.push_back(fault::trigger("route.maze", key).has_value());
  }
  for (std::uint64_t key = 64; key-- > 0;) {
    EXPECT_EQ(fault::trigger("route.maze", key).has_value(), first[key])
        << key;
  }
  // ~0.5 probability: both outcomes occur across 64 keys.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
  fault::clear_plan();
}

}  // namespace
}  // namespace ppacd
