// Fault storm: drive one 60 s playback session through a scripted storm
// — link outage, thermal throttle, lmkd-style kill with relaunch — and
// print the QoE delta against a clean run of the same seed.
//
//   $ ./examples/fault_storm [height] [fps]
//
// Storm timeline (relative to video start):
//   t=8 s    5 s full link outage (downloads freeze, then resume)
//   t=18 s   8 s thermal-throttle window, every core at 55% speed
//   t=30 s   targeted kill of the video client; the session relaunches
//            cold after 2.5 s and resumes at the next segment boundary
//
// Exits 1 if the storm run's frames do not add up to the asset's frame
// count (presented + dropped + lost to the kill).
#include <cstdio>
#include <cstdlib>

#include "scenario/driver.hpp"

namespace {

mvqoe::scenario::ScenarioResult run(int height, int fps, bool storm) {
  using namespace mvqoe;
  // Family fig11: Nexus 5 playing in Firefox; 60 s video, seed 7.
  scenario::ScenarioSpec spec = scenario::single_video(
      "fig11", height, fps, /*duration_s=*/60, mem::PressureLevel::Normal, /*seed=*/7);
  spec.run_watchdog = true;
  if (storm) {
    scenario::VideoWorkloadSpec& session = scenario::video_spec(spec);
    session.fault_plan.link_outages.push_back({sim::sec(8), sim::sec(5)});
    session.fault_plan.thermal_windows.push_back({sim::sec(18), sim::sec(8), 0.55});
    session.fault_plan.kills.push_back({sim::sec(30), 0});
    video::RecoveryConfig recovery;
    recovery.relaunch_on_kill = true;
    session.recovery = recovery;
  }
  return scenario::run_scenario(spec);
}

void print_run(const char* label, const mvqoe::core::VideoRunResult& r) {
  std::printf("%-10s status=%-9s presented=%4lld dropped=%4lld lost-to-kill=%4lld"
              " drop=%5.1f%% relaunches=%d rebuffers=%d downtime=%.2fs startup=%.2fs\n",
              label, mvqoe::core::to_string(r.status),
              static_cast<long long>(r.metrics.frames_presented),
              static_cast<long long>(r.metrics.frames_dropped),
              static_cast<long long>(r.metrics.frames_lost_to_kill),
              100.0 * r.outcome.drop_rate, r.metrics.relaunches, r.metrics.rebuffer_events,
              r.outcome.relaunch_downtime_s, r.outcome.startup_delay_s);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvqoe;
  const int height = argc > 1 ? std::atoi(argv[1]) : 480;
  const int fps = argc > 2 ? std::atoi(argv[2]) : 30;

  std::printf("fault storm vs clean run: Nexus 5, %dp%d, 60 s\n", height, fps);
  std::printf("storm: outage 8-13 s, thermal 18-26 s @ 0.55x, kill at 30 s (relaunch on)\n\n");

  const core::VideoRunResult clean = run(height, fps, false).sessions.at(0).result;
  const scenario::ScenarioResult storm_run = run(height, fps, true);
  const core::VideoRunResult& storm = storm_run.sessions.at(0).result;

  print_run("clean:", clean);
  print_run("storm:", storm);

  const std::int64_t total = storm.metrics.frames_presented + storm.metrics.frames_dropped +
                             storm.metrics.frames_lost_to_kill;
  const int asset_frames = 60 * fps;
  std::printf("\nframe identity (storm): %lld presented + %lld dropped + %lld lost = %lld"
              " (asset: %d)\n",
              static_cast<long long>(storm.metrics.frames_presented),
              static_cast<long long>(storm.metrics.frames_dropped),
              static_cast<long long>(storm.metrics.frames_lost_to_kill),
              static_cast<long long>(total), asset_frames);
  std::printf("QoE delta: drop rate %+.1f pp, %d kill(s) absorbed, %.2f s of downtime,\n"
              "           %d watchdog violation(s)\n",
              100.0 * (storm.outcome.drop_rate - clean.outcome.drop_rate),
              storm.metrics.relaunches, storm.outcome.relaunch_downtime_s,
              static_cast<int>(storm_run.watchdog_violations.size()));

  std::printf("\nper-second rendered FPS through the storm:\n");
  const auto& series = storm.metrics.presented_per_second;
  for (std::size_t second = 0; second < series.size(); second += 2) {
    const char* marker = "";
    if (second >= 8 && second < 13) marker = "  <- outage";
    else if (second >= 18 && second < 26) marker = "  <- thermal throttle";
    else if (second >= 30 && second < 36) marker = "  <- kill/relaunch window";
    std::printf("  t=%3zus  %3d fps%s\n", second, series[second], marker);
  }
  return total == asset_frames ? 0 : 1;
}
