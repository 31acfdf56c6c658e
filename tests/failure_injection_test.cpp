// Failure-injection and edge-case tests: throttled links, mid-run
// process death, rung churn, pathological configurations — the paths a
// downstream user will hit the day they change a default.
#include <gtest/gtest.h>

#include "proc/activity_manager.hpp"
#include "scenario/driver.hpp"
#include "trace/analysis.hpp"

namespace mvqoe {
namespace {

using mem::PressureLevel;
using sim::sec;

/// One Firefox session on an explicit device, seed 1.
scenario::ScenarioSpec custom_spec(core::DeviceProfile device, int height, int fps,
                                   PressureLevel pressure, int duration) {
  scenario::ScenarioSpec spec = scenario::single_video("", height, fps, duration, pressure, 1);
  spec.device_override = std::move(device);
  return spec;
}

core::VideoRunResult run_single(const scenario::ScenarioSpec& spec) {
  return scenario::run_scenario(spec).sessions.at(0).result;
}

struct DeviceFixture {
  core::Testbed testbed{core::nexus5(), 7};
  DeviceFixture() { testbed.boot(); }

  video::SessionConfig session_config(int height, int fps, int duration) {
    video::SessionConfig config;
    config.asset = video::dubai_flow_motion(duration);
    config.initial_rung = *config.ladder.find(height, fps);
    config.seed = 7;
    return config;
  }
};

TEST(FailureInjection, ThrottledLinkStallsDecoderWithoutCrashing) {
  DeviceFixture fx;
  // 0.8 Mbps link vs a 2.5 Mbps 480p30 stream: downloads cannot keep up,
  // the decoder starves, and late frames drop — but nothing crashes and
  // accounting stays exact.
  fx.testbed.link.set_rate_mbps(0.8);
  video::VideoSession session(fx.testbed.engine, fx.testbed.scheduler, fx.testbed.memory,
                              fx.testbed.link, fx.testbed.tracer,
                              fx.session_config(480, 30, 20));
  bool finished = false;
  session.start(fx.testbed.am.next_pid(), [&finished] { finished = true; });
  fx.testbed.engine.run_until(fx.testbed.engine.now() + sec(240));
  EXPECT_TRUE(finished);
  EXPECT_FALSE(session.metrics().crashed);
  const auto& metrics = session.metrics();
  EXPECT_EQ(metrics.frames_presented + metrics.frames_dropped, 20 * 30);
  EXPECT_GT(metrics.frames_dropped, 0);
}

TEST(FailureInjection, ClientProcessExitMidRunStopsSessionQuietly) {
  DeviceFixture fx;
  video::VideoSession session(fx.testbed.engine, fx.testbed.scheduler, fx.testbed.memory,
                              fx.testbed.link, fx.testbed.tracer,
                              fx.session_config(480, 30, 30));
  const auto pid = fx.testbed.am.next_pid();
  session.start(pid);
  fx.testbed.engine.run_until(fx.testbed.engine.now() + sec(10));
  // User swipes the app away: voluntary exit, not an lmkd kill.
  fx.testbed.memory.exit_process(pid);
  fx.testbed.engine.run_until(fx.testbed.engine.now() + sec(10));
  // No crash flag (no kill callback), no further frame activity.
  EXPECT_FALSE(session.metrics().crashed);
  const auto presented = session.metrics().frames_presented;
  fx.testbed.engine.run_until(fx.testbed.engine.now() + sec(5));
  EXPECT_EQ(session.metrics().frames_presented, presented);
}

TEST(FailureInjection, RungChurnEverySegmentStaysConsistent) {
  DeviceFixture fx;
  auto config = fx.session_config(1080, 60, 24);
  // Alternate rungs on every segment: exercises decoder-pool realloc and
  // per-segment frame-count changes.
  std::vector<video::ScheduledAbr::Step> steps;
  const int rungs[][2] = {{1080, 60}, {240, 24}, {720, 48}, {360, 30}, {1080, 60}, {480, 24}};
  for (int i = 0; i < 6; ++i) {
    steps.push_back({i, *config.ladder.find(rungs[i][0], rungs[i][1])});
  }
  video::ScheduledAbr abr(steps);
  video::VideoSession session(fx.testbed.engine, fx.testbed.scheduler, fx.testbed.memory,
                              fx.testbed.link, fx.testbed.tracer, config, &abr);
  bool finished = false;
  session.start(fx.testbed.am.next_pid(), [&finished] { finished = true; });
  fx.testbed.engine.run_until(fx.testbed.engine.now() + sec(90));
  ASSERT_TRUE(finished);
  // Frame totals must equal the sum over segments of fps * segment_s.
  std::int64_t expected = 0;
  for (const auto& rung : session.metrics().rung_history) expected += rung.fps * 4;
  EXPECT_EQ(session.metrics().frames_presented + session.metrics().frames_dropped, expected);
}

TEST(FailureInjection, ZeroZramDeviceStillWorks) {
  // A swapless device (like the real Nexus 5): reclaim can only evict
  // file pages; pressure escalates to kills faster.
  core::DeviceProfile device = core::nexus5();
  device.memory.zram_capacity = 0;
  const auto result = run_single(custom_spec(device, 480, 30, PressureLevel::Moderate, 16));
  // Must complete (possibly with drops/crash) without violating accounting.
  EXPECT_GE(result.metrics.frames_presented, 0);
}

TEST(FailureInjection, SingleCoreDeviceSerializesEverything) {
  core::DeviceProfile device = core::nokia1();
  device.scheduler.cores = {sched::CoreConfig{1.1}};
  const auto result = run_single(custom_spec(device, 240, 30, PressureLevel::Normal, 12));
  EXPECT_FALSE(result.outcome.crashed);
  // One 1.1 GHz core running client + system: playable at 240p30 but the
  // schedule is tight; accounting must still be exact.
  EXPECT_EQ(result.metrics.frames_presented + result.metrics.frames_dropped, 12 * 30);
}

TEST(FailureInjection, KillStormLeavesRegistryConsistent) {
  DeviceFixture fx;
  auto& memory = fx.testbed.memory;
  // Kill every killable process in a tight loop.
  for (int i = 0; i < 64; ++i) {
    const auto victim = memory.registry().pick_victim(mem::OomAdj::kForeground);
    if (!victim.has_value()) break;
    memory.kill_process(*victim);
  }
  fx.testbed.engine.run_until(fx.testbed.engine.now() + sec(1));
  for (const auto* process : memory.registry().all()) {
    EXPECT_GE(process->anon_resident, 0);
    EXPECT_GE(process->file_resident, 0);
  }
  EXPECT_GE(memory.free_pages(), 0);
}

TEST(FailureInjection, RespawnerRefillsAfterMassKill) {
  DeviceFixture fx;
  auto& memory = fx.testbed.memory;
  const int before = memory.registry().cached_count();
  for (int i = 0; i < before; ++i) {
    const auto victim = memory.registry().pick_victim(mem::OomAdj::kCached);
    if (victim.has_value()) memory.kill_process(*victim);
  }
  EXPECT_EQ(memory.registry().cached_count(), 0);
  fx.testbed.engine.run_until(fx.testbed.engine.now() + sec(120));
  EXPECT_GT(memory.registry().cached_count(), before / 2);
}

TEST(FailureInjection, PressureInducerUnreachableTargetIsBounded) {
  // An 8 GB device cannot be driven to Critical by a 2x-RAM-capped
  // allocator before the experiment times out; the inducer must stay
  // bounded and the system functional.
  core::Testbed testbed(core::generic_device(8192, 8, 2.5), 3);
  testbed.boot();
  core::PressureInducer inducer(testbed, PressureLevel::Critical);
  inducer.start(nullptr);
  testbed.engine.run_until(testbed.engine.now() + sec(60));
  EXPECT_LE(inducer.held_pages(), 2 * testbed.profile().memory.total);
  EXPECT_GE(testbed.memory.free_pages(), 0);
}

TEST(FailureInjection, StartupUnderCriticalEitherPlaysOrCrashesCleanly) {
  const auto result =
      run_single(scenario::single_video("fig16", 1080, 60, 16, PressureLevel::Critical, 1));
  // Whatever happens, the outcome must be classified: crashed or all
  // frames accounted.
  if (!result.outcome.crashed) {
    EXPECT_EQ(result.metrics.frames_presented + result.metrics.frames_dropped, 16 * 60);
  } else {
    EXPECT_GE(result.outcome.drop_rate, 0.0);
    EXPECT_LE(result.outcome.drop_rate, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Table-driven fault scenarios: every scenario runs a real session on a
// booted Nexus 5 with a FaultPlan armed against it, and must end with the
// frame identity intact — presented + dropped + lost_to_kill equals the
// asset's frame count — with no crash, no abort, no watchdog violation.
// ---------------------------------------------------------------------------

struct FaultScenario {
  const char* name;
  int duration_s;
  double rate_mbps;             // 0 = keep the 80 Mbps default
  sim::Time buffer_capacity;    // 0 = keep the 60 s default
  sim::Time outage_at;          // -1 = no outage
  sim::Time outage_duration;
  sim::Time kill_at;            // -1 = no kill
  int expected_relaunches;
  int min_rebuffer_events;
};

TEST(FaultScenarios, TableDrivenRecoveryKeepsFrameAccountingExact) {
  const FaultScenario scenarios[] = {
      // Outage from t=0: the very first segment download freezes mid-wire
      // during startup, then resumes; startup is late but playback runs.
      {"outage-during-startup", 16, 0.0, 0, 0, sec(3), -1, 0, 0},
      // Paced link + small buffer so downloads are still live at t=8 when
      // a 5 s steady-state outage hits.
      {"outage-steady-state", 20, 4.0, sec(8), sec(8), sec(5), -1, 0, 0},
      // Kill at 500 ms: mid-launch, before any frame or even the first
      // segment. Relaunch replays the whole asset; nothing is lost.
      {"kill-during-startup", 12, 0.0, 0, -1, 0, sim::msec(500), 1, 0},
      // Kill in steady playback: buffered segments and the partially
      // played one are forfeited, playback resumes at the next boundary.
      {"kill-steady-state", 16, 0.0, 0, -1, 0, sec(8), 1, 0},
      // A long outage drains the 8 s buffer into a rebuffer stall, and
      // the kill lands while the session is starved.
      {"kill-during-rebuffer", 24, 4.0, sec(8), sec(6), sec(12), sec(15), 1, 1},
  };

  for (const FaultScenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    DeviceFixture fx;
    if (sc.rate_mbps > 0.0) fx.testbed.link.set_rate_mbps(sc.rate_mbps);

    auto config = fx.session_config(480, 30, sc.duration_s);
    if (sc.buffer_capacity > 0) config.buffer_capacity = sc.buffer_capacity;
    config.recovery.relaunch_on_kill = true;
    config.recovery.max_relaunches = 1;
    config.next_pid = [&fx] { return fx.testbed.am.next_pid(); };

    fault::FaultPlan plan;
    if (sc.outage_at >= 0) plan.link_outages.push_back({sc.outage_at, sc.outage_duration});
    if (sc.kill_at >= 0) plan.kills.push_back({sc.kill_at, 0});

    fault::InvariantWatchdog watchdog(fx.testbed.engine, fault::WatchdogConfig{},
                                      &fx.testbed.memory, &fx.testbed.tracer);
    watchdog.start();

    video::VideoSession session(fx.testbed.engine, fx.testbed.scheduler, fx.testbed.memory,
                                fx.testbed.link, fx.testbed.tracer, config);

    fault::FaultTargets targets;
    targets.engine = &fx.testbed.engine;
    targets.link = &fx.testbed.link;
    targets.storage = &fx.testbed.storage;
    targets.scheduler = &fx.testbed.scheduler;
    targets.memory = &fx.testbed.memory;
    targets.tracer = &fx.testbed.tracer;
    fault::FaultInjector injector(targets, plan);
    injector.set_kill_target([&session] { return session.pid(); });
    injector.arm(fx.testbed.engine.now());

    bool finished = false;
    session.start(fx.testbed.am.next_pid(), [&finished] { finished = true; });
    const sim::Time horizon = fx.testbed.engine.now() + sec(240);
    while (!finished && fx.testbed.engine.now() < horizon) {
      fx.testbed.engine.run_until(fx.testbed.engine.now() + sec(1));
    }
    injector.disarm();
    watchdog.check_now();
    watchdog.stop();

    const auto& metrics = session.metrics();
    ASSERT_TRUE(finished);
    EXPECT_FALSE(metrics.crashed);
    EXPECT_FALSE(metrics.aborted);
    EXPECT_EQ(metrics.relaunches, sc.expected_relaunches);
    EXPECT_EQ(static_cast<int>(metrics.kill_times.size()), sc.expected_relaunches);
    EXPECT_GE(metrics.rebuffer_events, sc.min_rebuffer_events);
    EXPECT_EQ(metrics.frames_presented + metrics.frames_dropped + metrics.frames_lost_to_kill,
              static_cast<std::int64_t>(sc.duration_s) * 30)
        << "frame identity broken: presented=" << metrics.frames_presented
        << " dropped=" << metrics.frames_dropped
        << " lost_to_kill=" << metrics.frames_lost_to_kill;
    EXPECT_TRUE(watchdog.ok()) << (watchdog.ok() ? "" : watchdog.violations().front().what);
    if (sc.kill_at >= 0) {
      EXPECT_EQ(injector.kills_injected(), 1u);
      EXPECT_GT(metrics.relaunch_downtime, 0);
    }
  }
}

TEST(FaultScenarios, StorageErrorWindowDuringPressureDegradesButCompletes) {
  // Moderate pressure keeps kswapd reclaiming, so mmcqd is busy with
  // refault reads and writeback exactly when the degradation window
  // injects 6x latency and 40% transient errors. The device-side retry
  // path must absorb every error; the run must still classify cleanly.
  scenario::ScenarioSpec spec =
      scenario::single_video("fig11", 480, 30, 16, PressureLevel::Moderate, 1);
  scenario::video_spec(spec).fault_plan.storage_degradations.push_back(
      {sec(2), sec(12), 6.0, 0.4});
  spec.run_watchdog = true;
  scenario::ScenarioDriver driver(spec);
  const scenario::ScenarioResult result = driver.run();
  EXPECT_NE(result.status, core::RunStatus::TimedOut);
  EXPECT_TRUE(result.watchdog_violations.empty());
  const auto& counters = driver.testbed().storage.counters();
  EXPECT_GT(counters.io_errors, 0u);
  EXPECT_GE(counters.io_retries, counters.io_errors);
  // Window closed: storage back to nominal.
  EXPECT_DOUBLE_EQ(driver.testbed().storage.latency_multiplier(), 1.0);
  EXPECT_DOUBLE_EQ(driver.testbed().storage.error_rate(), 0.0);
}

TEST(FaultScenarios, AcceptanceOutagePlusKillRelaunchesOnceDeterministically) {
  // The ISSUE acceptance scenario: Nexus 5, 60 s 480p30 video, 5 s link
  // outage at t=10 s and an lmkd-style kill at t=30 s with the relaunch
  // path enabled. The session must complete without crash or hang,
  // relaunch exactly once, keep the frame identity exact, and replay
  // byte-identically for the same seed.
  const auto run_once = [] {
    scenario::ScenarioSpec spec =
        scenario::single_video("fig11", 480, 30, 60, PressureLevel::Normal, 11);
    scenario::VideoWorkloadSpec& session = scenario::video_spec(spec);
    session.fault_plan.link_outages.push_back({sec(10), sec(5)});
    session.fault_plan.kills.push_back({sec(30), 0});
    video::RecoveryConfig recovery;
    recovery.relaunch_on_kill = true;
    session.recovery = recovery;
    spec.run_watchdog = true;
    return scenario::run_scenario(spec);
  };

  const scenario::ScenarioResult first_run = run_once();
  const core::VideoRunResult& first = first_run.sessions.at(0).result;
  EXPECT_EQ(first.status, core::RunStatus::Completed) << first.failure_reason;
  EXPECT_FALSE(first.metrics.crashed);
  EXPECT_EQ(first.metrics.relaunches, 1);
  ASSERT_EQ(first.metrics.kill_times.size(), 1u);
  EXPECT_GT(first.metrics.frames_lost_to_kill, 0);
  EXPECT_EQ(first.metrics.frames_presented + first.metrics.frames_dropped +
                first.metrics.frames_lost_to_kill,
            60 * 30);
  EXPECT_TRUE(first_run.watchdog_violations.empty());

  const scenario::ScenarioResult second_run = run_once();
  const core::VideoRunResult& second = second_run.sessions.at(0).result;
  EXPECT_EQ(second.metrics.frames_presented, first.metrics.frames_presented);
  EXPECT_EQ(second.metrics.frames_dropped, first.metrics.frames_dropped);
  EXPECT_EQ(second.metrics.frames_lost_to_kill, first.metrics.frames_lost_to_kill);
  EXPECT_EQ(second.metrics.kill_times, first.metrics.kill_times);
  EXPECT_EQ(second.metrics.relaunch_downtime, first.metrics.relaunch_downtime);
  EXPECT_EQ(second.metrics.rebuffer_events, first.metrics.rebuffer_events);
  EXPECT_EQ(second.metrics.presented_per_second, first.metrics.presented_per_second);
  EXPECT_EQ(second.metrics.dropped_per_second, first.metrics.dropped_per_second);
  EXPECT_EQ(second.metrics.playback_start, first.metrics.playback_start);
  EXPECT_EQ(second.metrics.finished_at, first.metrics.finished_at);
}

TEST(FaultScenarios, RetryBudgetExhaustionAbortsInsteadOfHanging) {
  // A permanent outage starting before the first segment: every retry
  // times out, the budget exhausts, and the session must end as Aborted
  // with a structured reason — never hang until the horizon.
  DeviceFixture fx;
  auto config = fx.session_config(480, 30, 12);
  config.recovery.max_segment_retries = 2;
  config.recovery.retry_backoff_initial = sim::msec(100);
  config.recovery.download_watchdog = sec(2);
  fx.testbed.link.set_down(true);
  video::VideoSession session(fx.testbed.engine, fx.testbed.scheduler, fx.testbed.memory,
                              fx.testbed.link, fx.testbed.tracer, config);
  bool finished = false;
  session.start(fx.testbed.am.next_pid(), [&finished] { finished = true; });
  fx.testbed.engine.run_until(fx.testbed.engine.now() + sec(120));
  ASSERT_TRUE(finished);
  const auto& metrics = session.metrics();
  EXPECT_TRUE(metrics.aborted);
  EXPECT_FALSE(metrics.abort_reason.empty());
  EXPECT_GE(metrics.download_timeouts, 3);  // initial attempt + 2 retries
  EXPECT_EQ(metrics.segment_retries, 2);
  EXPECT_FALSE(metrics.crashed);
}

}  // namespace
}  // namespace mvqoe
