// Figure 12: rendering performance across the five genre videos (travel,
// sports, gaming, news, nature) on the Nexus 5, across resolutions,
// frame rates and pressure states. Paper: the trend holds for every
// genre — 30 FPS drops low/negligible, 60 FPS drops significant and
// growing with pressure and resolution.
#include "bench_util.hpp"

int main() {
  using namespace mvqoe;
  bench::header("Figure 12 - frame drops across video genres (Nexus 5)",
                "Waheed et al., CoNEXT'22, Fig. 12");
  const int runs = bench::runs_per_cell(3);
  const int duration = bench::video_duration_s(40);

  const auto suite = video::genre_suite(duration);
  const int heights[] = {480, 720, 1080};
  const mem::PressureLevel states[] = {mem::PressureLevel::Normal, mem::PressureLevel::Moderate,
                                       mem::PressureLevel::Critical};

  for (const auto& asset : suite) {
    bench::section(std::string(video::to_string(asset.genre)) + " — \"" + asset.title + "\"");
    std::printf("  %-9s", "state");
    for (const int fps : {30, 60}) {
      for (const int height : heights) std::printf("  %4dp@%-2d", height, fps);
    }
    std::printf("\n");
    for (const auto state : states) {
      std::printf("  %-9s", bench::state_name(state));
      for (const int fps : {30, 60}) {
        for (const int height : heights) {
          // Nexus 5 / Firefox playing this genre's asset.
          scenario::ScenarioSpec spec =
              scenario::single_video("fig11", height, fps, asset.duration_s, state,
                                     77 + height + fps + static_cast<int>(state) * 3);
          scenario::video_spec(spec).asset_override = asset;
          const auto agg = runner::run_scenario_batch(spec, runs, 1).aggregate;
          std::printf("  %7.1f%%", 100.0 * agg.drop_rate().mean);
          std::fflush(stdout);
        }
      }
      std::printf("\n");
    }
  }

  std::printf("\nShape check (paper): for every genre, 30 FPS drops are low and 60 FPS drops\n"
              "grow with pressure and resolution.\n");
  return 0;
}
