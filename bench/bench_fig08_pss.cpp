// Figure 8: video-client PSS on the Nexus 5 across resolutions
// (240p-1440p) and encoded frame rates (30/60), no memory pressure.
// Paper: PSS grows ~125 MB from 240p to 1080p (~31 MB per step) and
// ~20 MB on average when moving from 30 to 60 FPS.
#include "bench_util.hpp"

int main() {
  using namespace mvqoe;
  bench::header("Figure 8 - video client PSS vs resolution and frame rate (Nexus 5)",
                "Waheed et al., CoNEXT'22, Fig. 8 / Sec. 4.2");
  const int runs = bench::runs_per_cell(3);
  const int duration = bench::video_duration_s(40);

  double mean_30[6] = {0};
  double mean_60[6] = {0};
  const int heights[] = {240, 360, 480, 720, 1080, 1440};
  std::printf("%-7s  %-28s  %-28s\n", "", "30 FPS PSS (mean [min..max])", "60 FPS PSS");
  for (int i = 0; i < 6; ++i) {
    double row[2] = {0, 0};
    std::string cells[2];
    for (int f = 0; f < 2; ++f) {
      // fig11 = Nexus 5 / Firefox.
      const auto spec = scenario::single_video("fig11", heights[i], f == 0 ? 30 : 60, duration,
                                               mem::PressureLevel::Normal, 1);
      const auto agg = runner::run_scenario_batch(spec, runs, 1).aggregate;
      row[f] = agg.peak_pss_mb().mean;
      char buffer[96];
      std::snprintf(buffer, sizeof buffer, "%7.1f MB [%6.1f..%6.1f]", agg.peak_pss_mb().mean,
                    agg.min_peak_pss_mb(), agg.max_peak_pss_mb());
      cells[f] = buffer;
    }
    mean_30[i] = row[0];
    mean_60[i] = row[1];
    std::printf("%-7s  %-28s  %-28s\n", (std::to_string(heights[i]) + "p").c_str(),
                cells[0].c_str(), cells[1].c_str());
  }

  bench::section("paper-vs-measured");
  bench::compare("PSS increase 240p -> 1080p at 30 FPS", 125.0, mean_30[4] - mean_30[0], "MB");
  bench::compare("mean per-step increase (240p..1080p)", 31.3, (mean_30[4] - mean_30[0]) / 4.0,
                 "MB");
  double hfr = 0.0;
  for (int i = 0; i < 5; ++i) hfr += mean_60[i] - mean_30[i];
  bench::compare("mean 30->60 FPS increase (240p..1080p)", 20.0, hfr / 5.0, "MB");
  return 0;
}
