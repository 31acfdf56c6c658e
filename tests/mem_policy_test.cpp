// Differential tests for the pluggable reclaim/kill policy layer
// (DESIGN.md §16): the factory registry, the KillCharter contract the
// oracles replay against, scenario/campaign serialization of the policy
// axis, and — the load-bearing part — that the four registered policies
// are deterministic individually and pairwise distinct on a reference
// scenario, while the baseline stays byte-identical to the pre-policy
// encoder (SCEN v2, no config-tail bytes).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "campaign/policy_campaign.hpp"
#include "campaign/sweep_campaign.hpp"
#include "check/generator.hpp"
#include "check/harness.hpp"
#include "fleet/spec.hpp"
#include "mem/policy.hpp"
#include "net/cc.hpp"
#include "runner/scenario_batch.hpp"
#include "scenario/driver.hpp"
#include "scenario/spec.hpp"
#include "snapshot/bytes.hpp"
#include "snapshot/digest.hpp"
#include "stats/rng.hpp"

namespace mvqoe {
namespace {

// --- registry + factory ------------------------------------------------------

TEST(PolicyFactory, RegistersFourPoliciesInFactoryOrder) {
  const std::vector<std::string> expected = {"baseline", "swam", "ariadne", "partitioned"};
  EXPECT_EQ(mem::mem_policy_names(), expected);
  const mem::MemoryConfig config;
  for (const std::string& name : expected) {
    const auto policy = mem::make_mem_policy(mem::MemPolicySpec{name, {}}, config);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
    EXPECT_EQ(policy->charter().policy_name, name);
  }
}

TEST(PolicyFactory, RejectsUnknownNamesAndForeignParameters) {
  const mem::MemoryConfig config;
  EXPECT_THROW(mem::make_mem_policy({"lru2q", {}}, config), std::invalid_argument);
  EXPECT_THROW(mem::validate_policy_spec({"lru2q", {}}), std::invalid_argument);
  // Each policy only accepts its own declared parameters.
  EXPECT_THROW(mem::make_mem_policy({"baseline", {{"reserve_mb", 10.0}}}, config),
               std::invalid_argument);
  EXPECT_THROW(mem::make_mem_policy({"swam", {{"hot_cut_refus", 1.0}}}, config),
               std::invalid_argument);
  // Out-of-range values are rejected at construction.
  EXPECT_THROW(mem::make_mem_policy({"swam", {{"swap_full_fraction", 1.5}}}, config),
               std::invalid_argument);
  EXPECT_THROW(mem::make_mem_policy({"swam", {{"kill_cooldown_ms", -1.0}}}, config),
               std::invalid_argument);
  EXPECT_THROW(mem::make_mem_policy({"ariadne", {{"cold_ratio", 0.5}}}, config),
               std::invalid_argument);
  EXPECT_THROW(mem::make_mem_policy({"partitioned", {{"reserve_mb", -2.0}}}, config),
               std::invalid_argument);
}

// --- the charter contract ----------------------------------------------------

// A default-constructed KillCharter IS the baseline on the default
// MemoryConfig: the observe layer hands the oracle whatever charter the
// world runs, and this pin keeps the two default surfaces from drifting
// apart silently.
TEST(KillCharter, DefaultCharterMatchesDefaultMemoryConfig) {
  const mem::MemoryConfig config;
  const mem::KillCharter charter = mem::kill_charter_for({"baseline", {}}, config);
  const mem::KillCharter defaults;
  EXPECT_EQ(charter.kill_threshold, config.lmkd_kill_threshold);
  EXPECT_EQ(charter.foreground_threshold, config.lmkd_foreground_threshold);
  EXPECT_EQ(charter.background_adj_floor, config.lmkd_background_adj_floor);
  EXPECT_EQ(charter.minfree_cached, config.minfree_cached);
  EXPECT_EQ(charter.minfree_service, config.minfree_service);
  EXPECT_EQ(charter.minfree_perceptible, config.minfree_perceptible);
  EXPECT_EQ(charter.minfree_foreground, config.minfree_foreground);
  EXPECT_EQ(charter.kill_threshold, defaults.kill_threshold);
  EXPECT_EQ(charter.foreground_threshold, defaults.foreground_threshold);
  EXPECT_EQ(charter.background_adj_floor, defaults.background_adj_floor);
  EXPECT_EQ(charter.minfree_cached, defaults.minfree_cached);
  EXPECT_EQ(charter.minfree_service, defaults.minfree_service);
  EXPECT_EQ(charter.minfree_perceptible, defaults.minfree_perceptible);
  EXPECT_EQ(charter.minfree_foreground, defaults.minfree_foreground);
  EXPECT_EQ(charter.kill_cooldown, defaults.kill_cooldown);
  EXPECT_EQ(charter.victim_rule, mem::KillCharter::VictimRule::HighestAdj);
  EXPECT_EQ(charter.reserve_pages, 0);
  EXPECT_TRUE(charter.swap_aware_escalation);
  EXPECT_EQ(charter.swap_full_kill_fraction, 1.0);
}

TEST(KillCharter, ReplayKillFloorCoversTheBaselineBands) {
  const mem::KillCharter charter;
  const mem::Pages plenty = mem::pages_from_mb(200);
  const mem::Pages zcap = mem::pages_from_mb(450);
  // Quiet world: no band demands a kill.
  EXPECT_EQ(mem::replay_kill_floor(charter, 30.0, plenty, 0, zcap), mem::kNoKillFloor);
  // Background band: 60 < P < 95.
  EXPECT_EQ(mem::replay_kill_floor(charter, 70.0, plenty, 0, zcap), mem::OomAdj::kService);
  // Critical P with swap still plentiful stays on the background floor.
  EXPECT_EQ(mem::replay_kill_floor(charter, 96.0, plenty, 0, zcap), mem::OomAdj::kService);
  // Critical P with swap nearly exhausted reaches the foreground.
  EXPECT_EQ(mem::replay_kill_floor(charter, 96.0, plenty, zcap, zcap), mem::OomAdj::kForeground);
  // minfree ladder, top to bottom.
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, mem::pages_from_mb(40), 0, zcap),
            mem::OomAdj::kCached);
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, mem::pages_from_mb(25), 0, zcap),
            mem::OomAdj::kService);
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, mem::pages_from_mb(15), 0, zcap),
            mem::OomAdj::kPerceptible);
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, mem::pages_from_mb(10), 0, zcap),
            mem::OomAdj::kForeground);
}

TEST(KillCharter, SwamPublishesJointSwapKillRules) {
  const mem::MemoryConfig config;
  const mem::KillCharter charter = mem::kill_charter_for({"swam", {}}, config);
  EXPECT_EQ(charter.victim_rule, mem::KillCharter::VictimRule::FloorOnly);
  EXPECT_EQ(charter.swap_full_kill_fraction, 0.85);
  EXPECT_EQ(charter.kill_cooldown, sim::msec(250));
  // A nearly-full zRAM store demands background kills at zero pressure —
  // the joint swap/kill decision the baseline never makes.
  const mem::Pages plenty = mem::pages_from_mb(200);
  const mem::Pages zcap = config.zram_capacity;
  const mem::Pages nearly_full = static_cast<mem::Pages>(0.9 * static_cast<double>(zcap));
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, plenty, nearly_full, zcap),
            charter.background_adj_floor);
  const mem::KillCharter baseline;
  EXPECT_EQ(mem::replay_kill_floor(baseline, 0.0, plenty, nearly_full, zcap), mem::kNoKillFloor);
  // The fraction is tunable through the spec params.
  const mem::KillCharter tuned =
      mem::kill_charter_for({"swam", {{"swap_full_fraction", 0.5}}}, config);
  EXPECT_EQ(tuned.swap_full_kill_fraction, 0.5);
}

TEST(KillCharter, PartitionedReserveFiresBackgroundLevelsEarly) {
  const mem::MemoryConfig config;
  const mem::KillCharter charter = mem::kill_charter_for({"partitioned", {}}, config);
  EXPECT_EQ(charter.reserve_pages, config.minfree_perceptible);
  const mem::Pages zcap = config.zram_capacity;
  // Available memory the baseline ladder considers safe trips the
  // reserved ladder: the carve-out is already spoken for.
  const mem::Pages above_cached = config.minfree_cached + charter.reserve_pages / 2;
  const mem::KillCharter baseline;
  EXPECT_EQ(mem::replay_kill_floor(baseline, 0.0, above_cached, 0, zcap), mem::kNoKillFloor);
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, above_cached, 0, zcap), mem::OomAdj::kCached);
  // The bottom (save-the-foreground) level reads the raw number: a
  // reserve makes background kills earlier, never foreground kills.
  const mem::Pages scraping = config.minfree_foreground + charter.reserve_pages / 2;
  EXPECT_LT(mem::replay_kill_floor(charter, 0.0, scraping, 0, zcap), mem::OomAdj::kService);
  EXPECT_GT(mem::replay_kill_floor(charter, 0.0, scraping, 0, zcap), mem::OomAdj::kForeground);
  // The reserve is tunable; 0 restores Android's ladder.
  const mem::KillCharter flat = mem::kill_charter_for({"partitioned", {{"reserve_mb", 0.0}}},
                                                      config);
  EXPECT_EQ(flat.reserve_pages, 0);
  EXPECT_EQ(mem::replay_kill_floor(flat, 0.0, above_cached, 0, zcap), mem::kNoKillFloor);
}

// --- serialization of the policy axis ---------------------------------------

TEST(PolicySpec, RoundTripsThroughBytesWithParams) {
  mem::MemPolicySpec spec;
  spec.name = "swam";
  spec.params = {{"swap_full_fraction", 0.7}, {"kill_cooldown_ms", 500.0}};
  snapshot::ByteWriter w;
  mem::save_policy_spec(w, spec);
  const std::string bytes = std::move(w).take();
  snapshot::ByteReader r(bytes);
  EXPECT_EQ(mem::load_policy_spec(r), spec);
  EXPECT_TRUE(r.done());
}

TEST(PolicySpec, BaselineScenarioKeepsTheV2Encoding) {
  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 480, 30, 8, mem::PressureLevel::Low, 7);
  snapshot::ByteWriter w;
  scenario::save_scenario(w, scen);
  const std::string baseline_bytes = std::move(w).take();
  {
    snapshot::ByteReader r(baseline_bytes);
    EXPECT_EQ(r.u32(), 2u) << "a baseline scenario must stay on the pre-policy SCEN version";
  }
  scen.mem_policy.name = "ariadne";
  snapshot::ByteWriter w3;
  scenario::save_scenario(w3, scen);
  const std::string policy_bytes = std::move(w3).take();
  {
    snapshot::ByteReader r(policy_bytes);
    EXPECT_EQ(r.u32(), 3u);
  }
  snapshot::ByteReader r(policy_bytes);
  const scenario::ScenarioSpec back = scenario::load_scenario(r);
  EXPECT_EQ(back.mem_policy.name, "ariadne");
}

TEST(PolicySpec, CampaignAndFleetConfigsCarryThePolicyAxis) {
  campaign::SweepCampaignSpec sweep;
  sweep.mem_policy = {"swam", {{"swap_full_fraction", 0.7}}};
  const campaign::SweepCampaignSpec sweep_back =
      campaign::decode_sweep_config(campaign::encode_sweep_config(sweep));
  EXPECT_EQ(sweep_back.mem_policy, sweep.mem_policy);
  campaign::SweepCampaignSpec plain;
  EXPECT_NE(campaign::sweep_config_fingerprint(sweep), campaign::sweep_config_fingerprint(plain));
  // Baseline encodes to *nothing*: no policy tail, so historical
  // checkpoint fingerprints are untouched by this refactor.
  EXPECT_LT(campaign::encode_sweep_config(plain).size(),
            campaign::encode_sweep_config(sweep).size());

  fleet::FleetSpec fl;
  fl.mem_policy = {"partitioned", {{"reserve_mb", 32.0}}};
  const fleet::FleetSpec fl_back = fleet::decode_fleet_config(fleet::encode_fleet_config(fl));
  EXPECT_EQ(fl_back.mem_policy, fl.mem_policy);
  fleet::FleetSpec fl_plain;
  EXPECT_LT(fleet::encode_fleet_config(fl_plain).size(), fleet::encode_fleet_config(fl).size());

  campaign::PolicyCompareSpec compare;
  compare.base.duration_s = 8;
  compare.base.states = {mem::PressureLevel::Low};
  compare.base.fps = {30};
  compare.base.heights = {480};
  compare.base.runs = 2;
  for (const std::string& name : mem::mem_policy_names()) {
    compare.policies.push_back({name, {}});
  }
  const campaign::PolicyCompareSpec compare_back =
      campaign::decode_policy_config(campaign::encode_policy_config(compare));
  ASSERT_EQ(compare_back.policies.size(), compare.policies.size());
  for (std::size_t i = 0; i < compare.policies.size(); ++i) {
    EXPECT_EQ(compare_back.policies[i], compare.policies[i]);
  }
  EXPECT_EQ(campaign::policy_total_units(compare),
            compare.policies.size() * campaign::sweep_total_units(compare.base));
}

// --- reference-scenario differential suite -----------------------------------

scenario::ScenarioSpec reference_spec(const std::string& policy) {
  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 480, 30, 10, mem::PressureLevel::Low, 7);
  scen.mem_policy.name = policy;
  return scen;
}

struct ReferenceRun {
  std::uint64_t digest = 0;
  bool has_mpol = false;
  /// (at, pid, oom_adj, min_adj) per kill, in time order.
  std::vector<std::tuple<sim::Time, mem::ProcessId, int, int>> kills;
  std::vector<std::string> kill_policy_names;
};

ReferenceRun run_reference(const std::string& policy) {
  scenario::ScenarioDriver driver(reference_spec(policy));
  driver.run();
  ReferenceRun out;
  out.digest = driver.state_digest();
  for (const auto& [name, digest] : driver.subsystem_digests()) {
    if (name == "mem-policy") out.has_mpol = true;
  }
  for (const mem::MemoryManager::KillAudit& kill : driver.testbed().memory.kill_audits()) {
    out.kills.emplace_back(kill.at, kill.pid, kill.oom_adj, kill.min_adj);
    out.kill_policy_names.push_back(kill.policy_name);
  }
  return out;
}

// Each policy is deterministic run-to-run, every kill audit names the
// deciding policy, and only ariadne (per-process hotness + tiered store)
// registers an MPOL snapshot section.
TEST(PolicyDifferential, EachPolicyIsDeterministicAndAuditsItsKills) {
  for (const std::string& name : mem::mem_policy_names()) {
    const ReferenceRun first = run_reference(name);
    const ReferenceRun second = run_reference(name);
    EXPECT_EQ(first.digest, second.digest) << name;
    EXPECT_EQ(first.kills, second.kills) << name;
    EXPECT_FALSE(first.kills.empty())
        << name << ": the reference scenario must exercise the kill path";
    for (const std::string& audited : first.kill_policy_names) {
      EXPECT_EQ(audited, name);
    }
    EXPECT_EQ(first.has_mpol, name == "ariadne") << name;
  }
}

// The whole point of the lab: on one identically-seeded world, the four
// policies make pairwise-different kill decisions.
TEST(PolicyDifferential, PoliciesProducePairwiseDistinctKillSequences) {
  std::vector<ReferenceRun> runs;
  for (const std::string& name : mem::mem_policy_names()) {
    runs.push_back(run_reference(name));
  }
  for (std::size_t a = 0; a < runs.size(); ++a) {
    for (std::size_t b = a + 1; b < runs.size(); ++b) {
      EXPECT_NE(runs[a].kills, runs[b].kills)
          << mem::mem_policy_names()[a] << " vs " << mem::mem_policy_names()[b];
      EXPECT_NE(runs[a].digest, runs[b].digest)
          << mem::mem_policy_names()[a] << " vs " << mem::mem_policy_names()[b];
    }
  }
}

// --- ariadne byte identity ---------------------------------------------------

// The ariadne planner's per-batch bookkeeping (dense per-pid hotness,
// precomputed sort keys) and the memoised pressure_P() must reproduce the
// bytes of the straightforward map-based planner. These values were
// captured from that planner.

// The generated world behind mvbench's "ariadne + hog" finding: table1 /
// Low / ariadne with a pressure hog and a background cohort.
TEST(AriadneIdentity, GeneratedHogWorldKeepsItsFinalDigest) {
  check::GeneratorConfig gen;
  gen.policies = mem::mem_policy_names();
  gen.ccs = net::cc_names();
  gen.max_videos = 1;
  gen.min_duration_s = 6;
  gen.max_duration_s = 6;
  gen.organic_probability = 0.0;
  const scenario::ScenarioSpec spec =
      check::generate_scenario(stats::derive_seed(13, 55), gen);
  ASSERT_EQ(spec.family, "table1");
  ASSERT_EQ(spec.state, mem::PressureLevel::Low);
  ASSERT_EQ(spec.mem_policy.name, "ariadne");
  bool hog = false;
  bool background = false;
  for (const scenario::WorkloadSpec& workload : spec.workloads) {
    hog |= std::holds_alternative<scenario::PressureWorkloadSpec>(workload);
    background |= std::holds_alternative<scenario::BackgroundAppsWorkloadSpec>(workload);
  }
  ASSERT_TRUE(hog);
  ASSERT_TRUE(background);

  check::CheckOptions opts;
  opts.meta_determinism = false;
  const check::RunReport report = check::check_scenario(spec, opts);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.final_digest, 0x37aba53ba8dcf137ULL);
}

// One fig16 Low cell under ariadne: the MPOL section bytes (tier counts,
// hotness and previous-CPU tables in ascending pid order) and the full
// world digest.
TEST(AriadneIdentity, Fig16LowCellKeepsItsPolicyBytesAndStateDigest) {
  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 720, 60, 20, mem::PressureLevel::Low, 7);
  scen.mem_policy.name = "ariadne";
  scenario::ScenarioDriver driver(scen);
  driver.run();
  // The cell must reach the hotness-ordered compression path.
  ASSERT_GT(driver.testbed().memory.vmstat().pgscan_kswapd, 0u);
  ASSERT_GT(driver.testbed().memory.vmstat().pswpout, 0u);

  snapshot::ByteWriter w;
  driver.testbed().memory.policy().save(w);
  EXPECT_EQ(w.view().size(), std::size_t{495});
  EXPECT_EQ(snapshot::digest_bytes(w.view()), 17497254580077210337ULL);
  EXPECT_EQ(driver.state_digest(), 10257793504739314132ULL);
}

// The compare campaign's baseline lane IS the plain sweep campaign: the
// policy-major unit mapping may never perturb the mechanism's results.
TEST(PolicyCompare, BaselineLaneMatchesPlainSweepByteForByte) {
  campaign::SweepCampaignSpec base;
  base.duration_s = 8;
  base.states = {mem::PressureLevel::Low};
  base.fps = {30};
  base.heights = {480};
  base.runs = 2;
  base.seed = 5;

  campaign::PolicyCompareSpec compare;
  compare.base = base;
  for (const std::string& name : mem::mem_policy_names()) {
    compare.policies.push_back({name, {}});
  }
  const campaign::PolicyCompareResult result =
      campaign::run_policy_compare(compare, campaign::CampaignOptions{});
  ASSERT_TRUE(result.campaign.complete);
  ASSERT_EQ(result.lanes.size(), 4u);

  const campaign::SweepCampaignResult plain =
      campaign::run_sweep_campaign(base, campaign::CampaignOptions{});
  ASSERT_TRUE(plain.campaign.complete);
  EXPECT_EQ(runner::sweep_json("lane", result.lanes[0].cells, base.runs, 1, base.seed),
            runner::sweep_json("lane", plain.cells, base.runs, 1, base.seed));

  // And the four lanes are pairwise distinct grids.
  for (std::size_t a = 0; a < result.lanes.size(); ++a) {
    for (std::size_t b = a + 1; b < result.lanes.size(); ++b) {
      EXPECT_NE(runner::sweep_json("lane", result.lanes[a].cells, base.runs, 1, base.seed),
                runner::sweep_json("lane", result.lanes[b].cells, base.runs, 1, base.seed))
          << result.lanes[a].policy.name << " vs " << result.lanes[b].policy.name;
    }
  }

  // A one-policy compare is the plain sweep, digest included — on the
  // default link and on a non-default one (every lane honours base.net).
  campaign::PolicyCompareSpec single;
  single.base = base;
  single.policies = {base.mem_policy};
  EXPECT_EQ(campaign::run_policy_compare(single, campaign::CampaignOptions{}).digest,
            plain.digest);

  single.base.net.cc = "cubic";
  const campaign::PolicyCompareResult cubic_compare =
      campaign::run_policy_compare(single, campaign::CampaignOptions{});
  const campaign::SweepCampaignResult cubic_sweep =
      campaign::run_sweep_campaign(single.base, campaign::CampaignOptions{});
  ASSERT_TRUE(cubic_compare.campaign.complete);
  ASSERT_TRUE(cubic_sweep.campaign.complete);
  EXPECT_NE(cubic_sweep.digest, plain.digest);  // the link reaches the grid
  EXPECT_EQ(cubic_compare.digest, cubic_sweep.digest);
  EXPECT_EQ(runner::sweep_json("lane", cubic_compare.lanes[0].cells, base.runs, 1, base.seed),
            runner::sweep_json("lane", cubic_sweep.cells, base.runs, 1, base.seed));
}

}  // namespace
}  // namespace mvqoe
