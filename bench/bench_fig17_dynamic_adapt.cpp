// Figure 17: dynamically varying the frame rate (60 -> 24 -> 48) during
// one 480p session under organic Moderate pressure on the Nokia 1.
// Paper: heavy FPS losses at 60, mitigated by switching to 24.
// We additionally run the same scenario under the §6-inspired
// MemoryAwareAbr to quantify the proposal the paper motivates.
#include "video/abr_policy.hpp"
#include "bench_util.hpp"

namespace {

mvqoe::core::VideoRunResult run_with(mvqoe::video::AbrPolicy* abr, int duration,
                                     std::uint64_t seed) {
  using namespace mvqoe;
  // Nokia 1 / Firefox, 480p60.
  scenario::ScenarioSpec spec =
      scenario::single_video("fig16", 480, 60, duration, mem::PressureLevel::Normal, seed);
  spec.organic_background_apps = 8;  // paper: pressure introduced organically
  scenario::video_spec(spec).abr = abr;
  return scenario::run_scenario(spec).sessions.at(0).result;
}

void print_series(const char* label, const mvqoe::core::VideoRunResult& result) {
  mvqoe::bench::section(label);
  const auto& series = result.metrics.presented_per_second;
  for (std::size_t second = 0; second < series.size(); second += 2) {
    std::printf("  t=%3zus fps=%3d |%s\n", second, series[second],
                mvqoe::stats::ascii_bar(series[second] / 60.0, 30).c_str());
  }
  std::printf("  drop rate %.1f%%  crashed=%s\n", 100.0 * result.outcome.drop_rate,
              result.outcome.crashed ? "yes" : "no");
}

}  // namespace

int main() {
  using namespace mvqoe;
  bench::header("Figure 17 - dynamic frame-rate switching under organic Moderate (Nokia 1, 480p)",
                "Waheed et al., CoNEXT'22, Fig. 17 / Sec. 6");
  const int duration = bench::video_duration_s(48);
  const video::BitrateLadder ladder = video::BitrateLadder::youtube();
  const int segments = duration / 4;

  // The paper's scripted sequence: 60 -> 24 -> 48.
  std::vector<video::ScheduledAbr::Step> steps;
  steps.push_back({0, *ladder.find(480, 60)});
  steps.push_back({segments / 3, *ladder.find(480, 24)});
  steps.push_back({2 * segments / 3, *ladder.find(480, 48)});
  video::ScheduledAbr scripted(steps);
  const auto scripted_result = run_with(&scripted, duration, 5);
  print_series("scripted 60 -> 24 -> 48 (per-second rendered FPS)", scripted_result);

  // Per-phase means, as the paper narrates them.
  const auto& series = scripted_result.metrics.presented_per_second;
  const std::size_t phase = series.size() / 3;
  const int encoded[] = {60, 24, 48};
  bench::section("phase means");
  for (int p = 0; p < 3; ++p) {
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t s = phase * p; s < std::min(series.size(), phase * (p + 1)); ++s) {
      total += series[s];
      ++count;
    }
    std::printf("  encoded %2d FPS -> mean rendered %5.1f FPS\n", encoded[p],
                count > 0 ? total / count : 0.0);
  }

  // The actionable takeaway: a memory-aware policy reacting to trim
  // signals does the switch automatically.
  bench::section("memory-aware ABR vs fixed 60 FPS (same organic pressure)");
  const auto fixed = run_with(nullptr, duration, 6);
  video::MemoryAwareAbr aware(std::make_unique<video::RateBasedAbr>(60));
  const auto adaptive = run_with(&aware, duration, 6);
  std::printf("  fixed 480p60:      drop %5.1f%%  crashed=%s\n", 100.0 * fixed.outcome.drop_rate,
              fixed.outcome.crashed ? "yes" : "no");
  std::printf("  memory-aware:      drop %5.1f%%  crashed=%s  (final rung %s)\n",
              100.0 * adaptive.outcome.drop_rate, adaptive.outcome.crashed ? "yes" : "no",
              adaptive.metrics.rung_history.empty()
                  ? "?"
                  : adaptive.metrics.rung_history.back().label().c_str());
  return 0;
}
