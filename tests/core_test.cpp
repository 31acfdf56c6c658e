#include <gtest/gtest.h>

#include "runner/scenario_batch.hpp"
#include "scenario/driver.hpp"

namespace mvqoe::core {
namespace {

using mem::PressureLevel;

TEST(Devices, PresetsMatchPaperSpecs) {
  const auto nokia = nokia1();
  EXPECT_EQ(nokia.ram_mb, 1024);
  EXPECT_EQ(nokia.scheduler.cores.size(), 4u);
  EXPECT_DOUBLE_EQ(nokia.scheduler.cores[0].freq_ghz, 1.1);
  EXPECT_EQ(nokia.memory.trim_moderate, 6);
  EXPECT_EQ(nokia.memory.trim_low, 5);
  EXPECT_EQ(nokia.memory.trim_critical, 3);

  const auto n5 = nexus5();
  EXPECT_EQ(n5.ram_mb, 2048);
  EXPECT_DOUBLE_EQ(n5.scheduler.cores[0].freq_ghz, 2.33);

  const auto n6p = nexus6p();
  EXPECT_EQ(n6p.ram_mb, 3072);
  EXPECT_EQ(n6p.scheduler.cores.size(), 8u);  // big.LITTLE octa-core
  EXPECT_NE(n6p.scheduler.cores.front().freq_ghz, n6p.scheduler.cores.back().freq_ghz);
}

TEST(Devices, WatermarksOrdered) {
  for (const auto& device : all_devices()) {
    EXPECT_LT(device.memory.watermark_min, device.memory.watermark_low) << device.name;
    EXPECT_LT(device.memory.watermark_low, device.memory.watermark_high) << device.name;
    EXPECT_LT(device.memory.kernel_reserved, device.memory.total) << device.name;
  }
}

TEST(Devices, GenericDeviceScalesWithRam) {
  const auto small = generic_device(1024, 4, 1.3);
  const auto large = generic_device(6144, 8, 2.2);
  EXPECT_GT(large.memory.trim_moderate, small.memory.trim_moderate);
  EXPECT_GT(large.baseline_cached, small.baseline_cached);
  EXPECT_GT(large.memory.watermark_low, small.memory.watermark_low);
}

TEST(Testbed, BootSettlesWithHealthyMemory) {
  Testbed tb(nexus5());
  tb.boot();
  EXPECT_EQ(tb.memory.level(), PressureLevel::Normal);
  EXPECT_GT(tb.memory.free_pages(), tb.memory.config().watermark_high);
  EXPECT_EQ(tb.am.cached_count(), nexus5().baseline_cached);
}

TEST(Testbed, Nokia1BootsTighterThanNexus6p) {
  Testbed nokia(nokia1());
  nokia.boot();
  Testbed n6p(nexus6p());
  n6p.boot();
  EXPECT_LT(mem::mb_from_pages(nokia.memory.available_pages()),
            mem::mb_from_pages(n6p.memory.available_pages()));
}

TEST(PressureInducerTest, NormalTargetFiresImmediately) {
  Testbed tb(nexus5());
  tb.boot();
  PressureInducer inducer(tb, PressureLevel::Normal);
  bool reached = false;
  inducer.start([&] { reached = true; });
  tb.engine.run_until(tb.engine.now() + sim::msec(10));
  EXPECT_TRUE(reached);
  EXPECT_EQ(inducer.held_pages(), 0);
}

TEST(PressureInducerTest, ReachesModerateOnNokia1) {
  Testbed tb(nokia1());
  tb.boot();
  PressureInducer inducer(tb, PressureLevel::Moderate);
  bool reached = false;
  inducer.start([&] { reached = true; });
  const sim::Time deadline = tb.engine.now() + sim::minutes(5);
  while (!reached && tb.engine.now() < deadline) {
    tb.engine.run_until(tb.engine.now() + sim::sec(1));
  }
  EXPECT_TRUE(reached);
  // The Moderate onTrimMemory signal was delivered at least once (the
  // instantaneous level keeps oscillating with the kill/respawn churn).
  EXPECT_GE(tb.memory.vmstat().trim_signals[static_cast<int>(PressureLevel::Moderate)], 1u);
  EXPECT_GT(inducer.held_pages(), 0);
}

TEST(PressureInducerTest, ReachesCriticalOnNokia1) {
  Testbed tb(nokia1());
  tb.boot();
  PressureInducer inducer(tb, PressureLevel::Critical);
  bool reached = false;
  inducer.start([&] { reached = true; });
  const sim::Time deadline = tb.engine.now() + sim::minutes(5);
  while (!reached && tb.engine.now() < deadline) {
    tb.engine.run_until(tb.engine.now() + sim::sec(1));
  }
  EXPECT_TRUE(reached);
  EXPECT_GE(tb.memory.vmstat().trim_signals[static_cast<int>(PressureLevel::Critical)], 1u);
  // Reaching Critical implies lmkd already culled the cached LRU.
  EXPECT_LE(tb.am.cached_count(), nokia1().memory.trim_low);
  EXPECT_GT(tb.memory.vmstat().kills_lmkd, 3u);
}

TEST(PressureInducerTest, StopReleasesMemory) {
  Testbed tb(nokia1());
  tb.boot();
  PressureInducer inducer(tb, PressureLevel::Moderate);
  inducer.start(nullptr);
  tb.engine.run_until(tb.engine.now() + sim::minutes(2));
  const auto held = inducer.held_pages();
  EXPECT_GT(held, 0);
  const auto anon_before = tb.memory.anon_pages();
  inducer.stop();
  EXPECT_LT(tb.memory.anon_pages(), anon_before);
}

/// One single-video scenario run; families fig11 (Nexus 5) and fig16
/// (Nokia 1) both play in Firefox.
VideoRunResult run_single(const scenario::ScenarioSpec& spec) {
  return scenario::run_scenario(spec).sessions.at(0).result;
}

TEST(Experiment, CleanRunOnNexus5At480p30) {
  const auto result =
      run_single(scenario::single_video("fig11", 480, 30, 16, PressureLevel::Normal, 1));
  EXPECT_FALSE(result.outcome.crashed);
  EXPECT_LT(result.outcome.drop_rate, 0.05);
  EXPECT_EQ(result.start_level, PressureLevel::Normal);
  EXPECT_GT(result.outcome.mean_pss_mb, 100.0);
}

TEST(Experiment, RepeatedRunsAggregate) {
  const auto spec = scenario::single_video("fig11", 360, 30, 12, PressureLevel::Normal, 1);
  const auto aggregate = runner::run_scenario_batch(spec, 3, 1).aggregate;
  EXPECT_EQ(aggregate.runs(), 3u);
  EXPECT_LT(aggregate.drop_rate().mean, 0.05);
  EXPECT_DOUBLE_EQ(aggregate.crash_rate_percent(), 0.0);
}

TEST(Experiment, ModeratePressureDegradesNokia1) {
  scenario::ScenarioSpec spec =
      scenario::single_video("fig16", 720, 60, 20, PressureLevel::Normal, 1);
  const auto normal = run_single(spec);
  spec.state = PressureLevel::Moderate;
  const auto moderate = run_single(spec);

  EXPECT_GT(moderate.outcome.drop_rate, normal.outcome.drop_rate);
  EXPECT_GE(moderate.start_level, PressureLevel::Moderate);
}

TEST(Experiment, OrganicBackgroundAppsRaisePressure) {
  scenario::ScenarioSpec spec =
      scenario::single_video("fig16", 480, 60, 20, PressureLevel::Normal, 1);
  spec.organic_background_apps = 8;
  const auto result = run_single(spec);
  // Eight top-free apps on a 1 GB phone: playback starts under pressure.
  EXPECT_GE(result.start_level, PressureLevel::Moderate);
}

}  // namespace
}  // namespace mvqoe::core
