// Figure 15 + §4.3 "performance under organic memory pressure":
// rendered FPS and processes killed during a Nokia 1 video run where
// pressure comes from 8 real background apps instead of the synthetic
// allocator. Paper: 480p60 drops 11.7% under Normal vs 30.6% under
// organic Moderate; many more kills during the Moderate run.
#include "bench_util.hpp"
#include "trace/analysis.hpp"

namespace {

struct OrganicRun {
  double drop_rate = 0.0;
  bool crashed = false;
  std::vector<int> fps_series;
  std::vector<std::size_t> kills_cumulative;
  std::size_t playback_start_s = 0;
};

OrganicRun run(int background_apps, std::uint64_t seed, int duration) {
  using namespace mvqoe;
  // Nokia 1 / Firefox; the Normal state is ignored when organic.
  scenario::ScenarioSpec spec =
      scenario::single_video("fig16", 480, 60, duration, mem::PressureLevel::Normal, seed);
  spec.organic_background_apps = background_apps;
  scenario::ScenarioDriver driver(spec);
  const core::VideoRunResult result = driver.run().sessions.at(0).result;
  OrganicRun out;
  out.drop_rate = result.outcome.drop_rate;
  out.crashed = result.outcome.crashed;
  out.fps_series = result.metrics.presented_per_second;
  out.kills_cumulative = trace::cumulative_instants(driver.testbed().tracer,
                                                    trace::InstantKind::ProcessKilled);
  out.playback_start_s =
      static_cast<std::size_t>(result.metrics.playback_start / sim::sec(1));
  return out;
}

void print_timeline(const char* label, const OrganicRun& organic) {
  mvqoe::bench::section(label);
  for (std::size_t second = 0; second < organic.fps_series.size(); second += 2) {
    const std::size_t wall = organic.playback_start_s + second;
    const std::size_t kills =
        wall < organic.kills_cumulative.size() ? organic.kills_cumulative[wall] : 0;
    std::printf("  t=%3zus fps=%3d |%-20s killed(cum)=%2zu\n", second,
                organic.fps_series[second],
                mvqoe::stats::ascii_bar(organic.fps_series[second] / 60.0, 20).c_str(), kills);
  }
  std::printf("  drop rate %.1f%%  crashed=%s  total kills=%zu\n", 100.0 * organic.drop_rate,
              organic.crashed ? "yes" : "no",
              organic.kills_cumulative.empty() ? 0 : organic.kills_cumulative.back());
}

}  // namespace

int main() {
  using namespace mvqoe;
  bench::header("Figure 15 + organic-pressure comparison (Nokia 1, 480p60, 8 background apps)",
                "Waheed et al., CoNEXT'22, Fig. 15 / Sec. 4.3");
  const int duration = bench::video_duration_s();
  const int runs = bench::runs_per_cell(3);

  stats::Accumulator normal_drops;
  stats::Accumulator organic_drops;
  OrganicRun normal_example;
  OrganicRun moderate_example;
  for (int i = 0; i < runs; ++i) {
    const auto normal = run(0, 10 + i, duration);
    const auto organic = run(8, 20 + i, duration);
    normal_drops.add(100.0 * normal.drop_rate);
    organic_drops.add(100.0 * organic.drop_rate);
    if (i == 0) {
      normal_example = normal;
      moderate_example = organic;
    }
    std::fflush(stdout);
  }

  print_timeline("Normal (no background apps): rendered FPS + cumulative kills",
                 normal_example);
  print_timeline("organic Moderate (8 background apps)", moderate_example);

  bench::section("paper-vs-measured (480p60)");
  bench::compare("drops under Normal", 11.7, normal_drops.mean(), "%");
  bench::compare("drops under organic Moderate", 30.6, organic_drops.mean(), "%");
  std::printf("\nShape check (paper): many more processes are killed during the Moderate run\n"
              "(%zu vs %zu in the example runs above).\n",
              moderate_example.kills_cumulative.empty() ? 0
                                                        : moderate_example.kills_cumulative.back(),
              normal_example.kills_cumulative.empty() ? 0
                                                      : normal_example.kills_cumulative.back());
  return 0;
}
