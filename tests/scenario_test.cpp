// Scenario/workload model tests (DESIGN.md §11): the declarative spec
// round-trips through the SCEN section (v2, with v1 back-compat), a
// paper family equals its explicit custom-device form byte for byte,
// multi-session contention scenarios replay deterministically with
// per-session QoE attribution, the contention grid is --jobs invariant,
// and the component registry rejects section-tag collisions.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "runner/scenario_batch.hpp"
#include "scenario/driver.hpp"
#include "scenario/spec.hpp"
#include "snapshot/replay/record.hpp"

namespace mvqoe::scenario {
namespace {

using sim::sec;

ScenarioSpec two_session_spec(int duration_s = 8, std::uint64_t seed = 31) {
  ScenarioSpec scen = single_video("fig16", 480, 30, duration_s,
                                   mem::PressureLevel::Moderate, seed);
  VideoWorkloadSpec second = video_spec(scen, 0);
  second.label = "video1";
  second.seed = runner::contention_session_seed(seed, 1);
  scen.workloads.emplace_back(std::move(second));
  return scen;
}

TEST(ScenarioSpec, SingleVideoMapsLegacyTupleOntoOneWorkload) {
  const ScenarioSpec scen =
      single_video("fig18", 720, 60, 30, mem::PressureLevel::Critical, 9);
  EXPECT_EQ(video_count(scen), 1u);
  const VideoWorkloadSpec& video = video_spec(scen, 0);
  EXPECT_EQ(video.height, 720);
  EXPECT_EQ(video.fps, 60);
  EXPECT_EQ(video.duration_s, 30);
  EXPECT_EQ(video.seed, 9u);  // video stream follows the scenario seed
  EXPECT_EQ(platform_for(scen, video), video::PlayerPlatform::ExoPlayer);
  EXPECT_EQ(device_for(scen).name, core::nexus5().name);
}

TEST(ScenarioSpec, ScenSectionV2RoundTripsWorkloadLists) {
  ScenarioSpec scen = two_session_spec(12, 77);
  scen.organic_background_apps = 4;
  scen.run_watchdog = true;
  scen.world_seed = 123;
  PressureWorkloadSpec hog;
  hog.label = "hog";
  hog.target = mem::PressureLevel::Critical;
  scen.workloads.emplace_back(hog);
  BackgroundAppsWorkloadSpec apps;
  apps.label = "cohort";
  apps.count = 3;
  scen.workloads.emplace_back(apps);

  snapshot::ByteWriter w;
  save_scenario(w, scen);
  const std::string bytes = std::move(w).take();
  snapshot::ByteReader r(bytes);
  const ScenarioSpec loaded = load_scenario(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded.family, scen.family);
  EXPECT_EQ(loaded.organic_background_apps, 4);
  EXPECT_TRUE(loaded.run_watchdog);
  ASSERT_TRUE(loaded.world_seed.has_value());
  EXPECT_EQ(*loaded.world_seed, 123u);
  ASSERT_EQ(loaded.workloads.size(), 4u);
  EXPECT_EQ(video_count(loaded), 2u);
  EXPECT_EQ(video_spec(loaded, 1).label, "video1");
  EXPECT_EQ(video_spec(loaded, 1).seed, video_spec(scen, 1).seed);
  const auto& loaded_hog = std::get<PressureWorkloadSpec>(loaded.workloads[2]);
  EXPECT_EQ(loaded_hog.label, "hog");
  EXPECT_EQ(loaded_hog.target, mem::PressureLevel::Critical);
  const auto& loaded_apps = std::get<BackgroundAppsWorkloadSpec>(loaded.workloads[3]);
  EXPECT_EQ(loaded_apps.count, 3);
}

// Back-compat: a v1 SCEN section (the legacy single-video tuple, as
// found in pre-v2 blobs like tests/data/golden_fig16.blob) must load
// into the equivalent one-workload scenario.
TEST(ScenarioSpec, ScenSectionV1StillLoads) {
  snapshot::ByteWriter w;
  w.u32(1);  // legacy section version
  w.str("fig11");
  w.i32(360);
  w.i32(30);
  w.i32(16);
  w.u8(static_cast<std::uint8_t>(mem::PressureLevel::Moderate));
  w.u64(41);
  fault::FaultPlan plan;
  plan.link_outages.push_back({sec(2), sec(1)});
  save_fault_plan(w, plan);

  const std::string bytes = std::move(w).take();
  snapshot::ByteReader r(bytes);
  const ScenarioSpec loaded = load_scenario(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded.family, "fig11");
  EXPECT_EQ(loaded.state, mem::PressureLevel::Moderate);
  EXPECT_EQ(loaded.seed, 41u);
  ASSERT_EQ(video_count(loaded), 1u);
  const VideoWorkloadSpec& video = video_spec(loaded, 0);
  EXPECT_EQ(video.height, 360);
  EXPECT_EQ(video.fps, 30);
  EXPECT_EQ(video.duration_s, 16);
  EXPECT_EQ(video.seed, 41u);
  ASSERT_EQ(video.fault_plan.link_outages.size(), 1u);
  EXPECT_EQ(video.fault_plan.link_outages[0].at, sec(2));
}

TEST(ScenarioSpec, SaveRejectsRuntimeOnlyKnobs) {
  ScenarioSpec custom;
  custom.family.clear();
  custom.device_override = core::nokia1();
  custom.workloads.emplace_back(VideoWorkloadSpec{});
  snapshot::ByteWriter w;
  EXPECT_THROW(save_scenario(w, custom), std::invalid_argument);

  ScenarioSpec with_asset = single_video("fig16", 480, 30, 8,
                                         mem::PressureLevel::Normal, 1);
  video_spec(with_asset, 0).asset_override = video::dubai_flow_motion(8);
  EXPECT_THROW(save_scenario(w, with_asset), std::invalid_argument);
}

// A paper family is shorthand for an explicit device and player: the
// fig11 family form and its custom-device form (Nexus 5, Firefox, the
// default asset spelled out) must build the same world — same final
// state digest, same outcome bytes — so callers can use either.
TEST(ScenarioSpec, FamilySpecEqualsCustomDeviceSpec) {
  const ScenarioSpec family = single_video("fig11", 480, 30, 8, mem::PressureLevel::Moderate, 23);

  ScenarioSpec custom;
  custom.family.clear();
  custom.device_override = core::nexus5();
  custom.state = mem::PressureLevel::Moderate;
  custom.seed = 23;
  VideoWorkloadSpec session;
  session.height = 480;
  session.fps = 30;
  session.duration_s = 8;
  session.platform = video::PlayerPlatform::Firefox;
  session.seed = 23;
  session.asset_override = video::dubai_flow_motion(8);
  custom.workloads.emplace_back(std::move(session));

  auto run = [](const ScenarioSpec& spec) {
    ScenarioDriver driver(spec);
    const ScenarioResult result = driver.run();
    runner::JsonWriter w;
    runner::write_run_outcome(w, result.sessions.at(0).result.outcome);
    return std::make_pair(driver.state_digest(), w.str());
  };
  const auto [family_digest, family_outcome] = run(family);
  const auto [custom_digest, custom_outcome] = run(custom);
  EXPECT_EQ(family_digest, custom_digest);
  EXPECT_EQ(family_outcome, custom_outcome);
}

// Two concurrent sessions, replayed twice: identical per-session digests
// and per-session results. This is the determinism contract extended to
// multi-session worlds.
TEST(Contention, TwoSessionsReplayDigestIdentical) {
  const ScenarioSpec scen = two_session_spec();
  auto run_once = [&] {
    ScenarioDriver driver(scen);
    driver.prepare();
    driver.start();
    while (driver.advance_slice()) {
    }
    return std::make_pair(driver.subsystem_digests(), driver.finalize());
  };
  const auto [digests_a, result_a] = run_once();
  const auto [digests_b, result_b] = run_once();

  ASSERT_EQ(digests_a.size(), digests_b.size());
  for (std::size_t i = 0; i < digests_a.size(); ++i) {
    EXPECT_EQ(digests_a[i].second, digests_b[i].second) << digests_a[i].first;
  }
  // Both video sessions (and their digests) are registry components.
  bool saw_video1 = false;
  for (const auto& [name, digest] : digests_a) saw_video1 |= name == "video1";
  EXPECT_TRUE(saw_video1);

  ASSERT_EQ(result_a.sessions.size(), 2u);
  EXPECT_EQ(result_a.sessions[0].label, "video");
  EXPECT_EQ(result_a.sessions[1].label, "video1");
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(result_a.sessions[k].result.outcome.drop_rate,
              result_b.sessions[k].result.outcome.drop_rate);
    EXPECT_EQ(result_a.sessions[k].result.outcome.mean_pss_mb,
              result_b.sessions[k].result.outcome.mean_pss_mb);
    EXPECT_GT(result_a.sessions[k].result.metrics.frames_presented +
                  result_a.sessions[k].result.metrics.frames_dropped,
              0);
  }
}

// Record/verify across the blob: a two-session scenario records with
// VID1 (and SCEN v2) sections and replays digest-identical end to end.
TEST(Contention, TwoSessionBlobRecordsAndVerifies) {
  const ScenarioSpec scen = two_session_spec();
  const snapshot::Snapshot blob = snapshot::replay::record_run(scen, {sec(4), std::nullopt});
  EXPECT_TRUE(blob.has(snapshot::tag("VIDE")));
  EXPECT_TRUE(blob.has(snapshot::tag("VID1")));

  const auto report = snapshot::replay::verify_replay(blob);
  EXPECT_TRUE(report.ok) << snapshot::replay::format_report(report);
}

// --jobs invariance for the contention grid: parallel equals serial
// byte-for-byte on the JSON payload (per-session aggregates included).
TEST(Contention, GridParallelMatchesSerialByteForByte) {
  ScenarioSpec proto = single_video("fig16", 360, 30, 6,
                                    mem::PressureLevel::Normal, 1);
  const std::vector<int> session_counts = {1, 2};
  const std::vector<mem::PressureLevel> states = {mem::PressureLevel::Normal,
                                                  mem::PressureLevel::Moderate};
  const int runs = 2;
  const std::uint64_t base_seed = 400;

  const auto serial =
      runner::run_contention_grid(proto, session_counts, states, runs, 1, base_seed);
  const auto parallel =
      runner::run_contention_grid(proto, session_counts, states, runs, 4, base_seed);
  ASSERT_EQ(serial.size(), 4u);
  for (const auto& cell : serial) EXPECT_EQ(cell.failures, 0u);
  EXPECT_EQ(runner::contention_json("identity", serial, runs, 1, base_seed),
            runner::contention_json("identity", parallel, runs, 1, base_seed));

  // Per-session attribution: the 2-session cells report video0 and
  // video1 separately, each with `runs` outcomes.
  const auto& two = serial.back();
  ASSERT_EQ(two.sessions, 2);
  ASSERT_EQ(two.breakdown.entries().size(), 2u);
  EXPECT_EQ(two.breakdown.entries()[0].first, "video0");
  EXPECT_EQ(two.breakdown.entries()[1].first, "video1");
  EXPECT_NE(two.breakdown.find("video1"), nullptr);
  EXPECT_EQ(two.breakdown.entries()[0].second.runs(), static_cast<std::size_t>(runs));
}

TEST(Contention, SeedSchemeIsCollisionFreeAcrossSessionsAndCells) {
  const auto c1 = runner::contention_cell_seed(7, 1, mem::PressureLevel::Normal);
  const auto c2 = runner::contention_cell_seed(7, 2, mem::PressureLevel::Normal);
  const auto c3 = runner::contention_cell_seed(7, 1, mem::PressureLevel::Moderate);
  EXPECT_NE(c1, c2);
  EXPECT_NE(c1, c3);
  EXPECT_NE(runner::contention_session_seed(c1, 0), runner::contention_session_seed(c1, 1));
  EXPECT_NE(runner::contention_session_seed(c1, 0), runner::contention_session_seed(c2, 0));
}

TEST(Registry, DuplicateSectionTagFailsLoudly) {
  core::ComponentRegistry registry;
  registry.add(0, snapshot::tag("ENGN"), "engine", [](snapshot::ByteWriter&) {},
               [] { return 1ULL; });
  EXPECT_THROW(registry.add(1, snapshot::tag("ENGN"), "engine2",
                            [](snapshot::ByteWriter&) {}, [] { return 2ULL; }),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.has(snapshot::tag("ENGN")));
}

// More than 10 video sessions would collide in the 4-char tag space —
// the workload ctor refuses instead of silently reusing a tag.
TEST(Registry, MoreThanTenSessionsOfOneKindRejected) {
  ScenarioSpec scen = single_video("fig16", 240, 30, 4, mem::PressureLevel::Normal, 1);
  for (int k = 1; k <= 10; ++k) {
    VideoWorkloadSpec extra = video_spec(scen, 0);
    extra.label = "video" + std::to_string(k);
    scen.workloads.emplace_back(std::move(extra));
  }
  EXPECT_THROW(ScenarioDriver driver(scen), std::invalid_argument);
}

}  // namespace
}  // namespace mvqoe::scenario
