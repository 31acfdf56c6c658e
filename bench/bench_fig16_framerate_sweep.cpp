// Figure 16: impact of varying the encoded frame rate (24/48/60) at
// three resolutions on the Nokia 1. Paper: at 1080p, rendered FPS is
// zero when encoded at 60 FPS but losses drop to about zero at 24 FPS —
// high resolution can be preserved by lowering the frame rate.
//
// The three per-resolution sessions are independent (own Engine/Testbed
// each), so they fan out across the batch runner; --jobs 1 reproduces
// the identical numbers serially.
#include <array>
#include <chrono>

#include "bench_util.hpp"
#include "runner/warm_sweep.hpp"

namespace {

struct HeightResult {
  int height = 0;
  std::array<double, 3> rendered_fps{};  // phases encoded at 60/48/24
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mvqoe;
  bench::header("Figure 16 - encoded frame rate vs rendered FPS per resolution (Nokia 1)",
                "Waheed et al., CoNEXT'22, Fig. 16 / Sec. 6");
  const int duration = bench::video_duration_s(48);
  const int jobs = bench::jobs_from_args(argc, argv);
  const std::vector<int> heights = {480, 720, 1080};
  constexpr int kEncoded[] = {60, 48, 24};

  const auto batch = runner::run_batch(heights.size(), jobs, [&](std::size_t i) {
    // Declarative scenario (DESIGN.md §11): one Nokia 1 world with one
    // video session.
    scenario::ScenarioSpec spec;
    spec.family.clear();
    spec.device_override = core::nokia1();
    spec.seed = 5;
    scenario::VideoWorkloadSpec session;
    session.height = heights[i];
    session.fps = 60;
    session.duration_s = duration;
    session.seed = 5;

    // Scripted frame-rate schedule: thirds of the session.
    const video::BitrateLadder ladder = video::BitrateLadder::youtube();
    const int segments = duration / 4;
    std::vector<video::ScheduledAbr::Step> steps;
    steps.push_back({0, *ladder.find(session.height, 60)});
    steps.push_back({segments / 3, *ladder.find(session.height, 48)});
    steps.push_back({2 * segments / 3, *ladder.find(session.height, 24)});
    video::ScheduledAbr abr(steps);
    session.abr = &abr;
    spec.workloads.emplace_back(std::move(session));

    const auto scen = scenario::run_scenario(spec);
    const auto& result = scen.sessions.at(0).result;
    const auto& series = result.metrics.presented_per_second;

    HeightResult out;
    out.height = heights[i];
    const std::size_t phase = series.size() / 3;
    for (int p = 0; p < 3; ++p) {
      double total = 0.0;
      std::size_t count = 0;
      for (std::size_t s = phase * static_cast<std::size_t>(p);
           s < std::min(series.size(), phase * static_cast<std::size_t>(p + 1)); ++s) {
        total += series[s];
        ++count;
      }
      out.rendered_fps[static_cast<std::size_t>(p)] = count > 0 ? total / count : 0.0;
    }
    return out;
  });

  runner::JsonWriter json;
  json.begin_object()
      .field("bench", "fig16_framerate_sweep")
      .field("jobs", batch.jobs_used)
      .field("duration_s", duration);
  json.key("resolutions").begin_array();
  for (const auto& slot : batch.runs) {
    if (!slot.ok) {
      bench::section("run failed: " + slot.error);
      continue;
    }
    const HeightResult& r = slot.value;
    bench::section(std::to_string(r.height) + "p - one session switching 60 -> 48 -> 24 FPS");
    json.begin_object().field("height", r.height).key("phases").begin_array();
    for (int p = 0; p < 3; ++p) {
      const double rendered = r.rendered_fps[static_cast<std::size_t>(p)];
      std::printf("  encoded %2d FPS -> rendered %5.1f FPS |%s\n", kEncoded[p], rendered,
                  stats::ascii_bar(rendered / 60.0, 30).c_str());
      json.begin_object()
          .field("encoded_fps", kEncoded[p])
          .field("rendered_fps", rendered)
          .end_object();
    }
    json.end_array().end_object();
  }
  json.end_array().end_object();
  const std::string path = runner::bench_json_path("fig16_framerate_sweep");
  if (runner::write_file(path, json.str())) {
    std::printf("\nmachine-readable: %s\n", path.c_str());
  }

  std::printf("\nShape check (paper): at 1080p the rendered FPS is ~0 at 60 FPS encoding and\n"
              "recovers to ~the encoded rate at 24 FPS — resolution can be preserved by\n"
              "adapting the frame rate.\n");

  // Group-seeded sweep: the fig16 grid (heights x encoded frame rates)
  // in (state, run) groups whose cells share one world stream, groups on
  // --jobs threads (runner/warm_sweep). One timed pass.
  bench::section("warm-start sweep: group-seeded grid, one timed pass");
  {
    using clock = std::chrono::steady_clock;
    scenario::ScenarioSpec proto;
    proto.family.clear();
    proto.device_override = core::nokia1();
    scenario::VideoWorkloadSpec session;
    session.duration_s = bench::video_duration_s(16);
    proto.workloads.emplace_back(std::move(session));
    // Organic background churn in the world phase: launching and
    // settling 20 apps is the costliest world a cell boots.
    proto.organic_background_apps = 20;
    const std::vector<mem::PressureLevel> states = {mem::PressureLevel::Normal};
    const std::vector<int> sweep_heights = {240, 360, 480, 720, 1080};
    const std::vector<int> sweep_fps = {24, 48, 60};
    const int runs = bench::runs_per_cell(1);
    const std::uint64_t base_seed = 5;
    const int jobs_used = runner::resolve_jobs(jobs);

    const auto t0 = clock::now();
    const auto grid = runner::run_sweep_grid_shared(proto, states, sweep_fps, sweep_heights, runs,
                                                    jobs, base_seed);
    const double wall_s = std::chrono::duration<double>(clock::now() - t0).count();
    std::printf("  grid: %zu cells x %d run(s), %.2fs\n", grid.size(), runs, wall_s);
    const std::string sweep_path = runner::bench_json_path("fig16_warm_start");
    if (runner::write_file(sweep_path,
                           runner::sweep_json("fig16_warm_start", grid, runs, jobs_used,
                                              base_seed))) {
      std::printf("  machine-readable: %s\n", sweep_path.c_str());
    }
  }
  return 0;
}
