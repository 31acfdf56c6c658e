// The paper's actionable proposal (§6/§7), demonstrated end to end:
// ABR algorithms that listen to onTrimMemory signals and adapt the
// *frame rate* (not just the bitrate) recover playback under memory
// pressure that wrecks network-only policies.
//
// Runs the same pressured scenario (Nokia 1, organic background-app
// pressure) under four policies and prints the comparison.
#include <cstdio>
#include <memory>

#include "scenario/driver.hpp"
#include "video/abr_policy.hpp"

namespace {

mvqoe::core::VideoRunResult run_policy(mvqoe::video::AbrPolicy* policy, std::uint64_t seed) {
  using namespace mvqoe;
  // Family fig16: Nokia 1 playing in Firefox. The network-only policies
  // will happily pick 720p at 60 FPS, which the pressured device cannot
  // render.
  scenario::ScenarioSpec spec =
      scenario::single_video("fig16", 720, 60, 60, mem::PressureLevel::Normal, seed);
  spec.organic_background_apps = 8;
  scenario::video_spec(spec).abr = policy;
  return scenario::run_scenario(spec).sessions.at(0).result;
}

void report(const char* name, const mvqoe::core::VideoRunResult& result) {
  const auto& history = result.metrics.rung_history;
  std::printf("  %-28s drops %5.1f%%  crashed=%-3s  final rung %s\n", name,
              100.0 * result.outcome.drop_rate, result.outcome.crashed ? "yes" : "no",
              history.empty() ? "-" : history.back().label().c_str());
}

}  // namespace

int main() {
  using namespace mvqoe;
  std::printf("Scenario: Nokia 1 (1 GB), 8 background apps (organic pressure), 60 s video.\n");
  std::printf("Network is never the bottleneck — only memory/CPU are (paper Sec. 4.1).\n\n");

  report("fixed 720p60", run_policy(nullptr, 3));

  video::RateBasedAbr rate_based(60);
  report("rate-based (network-only)", run_policy(&rate_based, 3));

  video::BufferBasedAbr buffer_based(60);
  report("buffer-based / BBA", run_policy(&buffer_based, 3));

  video::BolaAbr bola(60);
  report("BOLA", run_policy(&bola, 3));

  // The §6 proposal: wrap any network policy with memory-pressure caps
  // that trade frame rate before resolution.
  video::MemoryAwareAbr aware(std::make_unique<video::RateBasedAbr>(60));
  report("memory-aware(rate-based)", run_policy(&aware, 3));

  std::printf("\nThe memory-aware policy reacts to onTrimMemory signals by capping the frame\n");
  std::printf("rate (60 -> 48 -> 24) and, if drops persist, the resolution — the adaptation\n");
  std::printf("the paper shows recovers playback (Figs 16/17).\n");
  return 0;
}
