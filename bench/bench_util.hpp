// Shared helpers for the per-figure/table bench binaries. Each binary
// regenerates one table or figure from the paper and prints the same
// rows/series the paper reports, with the paper's reported values beside
// the measured ones where the paper states them.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runner/scenario_batch.hpp"

namespace mvqoe::bench {

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

/// Paper-vs-measured line for EXPERIMENTS.md cross-checking.
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& unit) {
  std::printf("  %-52s paper: %8.1f %-4s measured: %8.1f %s\n", what.c_str(), paper,
              unit.c_str(), measured, unit.c_str());
}

/// Number of repetitions per experiment cell. The paper uses five; the
/// MVQOE_RUNS environment variable can lower it for quick smoke runs.
inline int runs_per_cell(int fallback = 5) {
  if (const char* env = std::getenv("MVQOE_RUNS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return fallback;
}

/// Video duration (seconds) used by the sweep benches. The paper streams
/// a few minutes; 60 simulated seconds keeps the full suite fast while
/// giving every mechanism time to express itself.
inline int video_duration_s(int fallback = 60) {
  if (const char* env = std::getenv("MVQOE_DURATION_S")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return fallback;
}

/// Worker threads for the sweep benches: --jobs N / --jobs=N on the
/// command line, else MVQOE_JOBS, else every hardware thread. jobs == 1
/// is the serial fallback (byte-identical per-run results by contract).
inline int jobs_from_args(int argc, char** argv) {
  return runner::jobs_from_args(argc, argv);
}

/// Shared sweep for the Fig 9/11/18/19 drop panels and Table 2/3 crash
/// tables: device x platform x {resolutions} x {30,60} x pressure states.
struct SweepSpec {
  core::DeviceProfile device;
  video::PlayerPlatform platform = video::PlayerPlatform::Firefox;
  std::vector<int> heights = {240, 360, 480, 720, 1080};
  std::vector<int> fps = {30, 60};
  std::vector<mem::PressureLevel> states = {mem::PressureLevel::Normal,
                                            mem::PressureLevel::Moderate,
                                            mem::PressureLevel::Critical};
  /// Batch seed; per-cell seeds are derive_seed streams off this (the old
  /// additive `1000 + height + fps + state*7` formula let distinct cells
  /// alias to the same seed and correlate their runs).
  std::uint64_t base_seed = 1000;
};

struct SweepCell {
  int height = 0;
  int fps = 0;
  mem::PressureLevel state{};
  qoe::RunAggregate aggregate;
};

/// Run the grid on the batch runner: (cell, run) tasks fan out across
/// `jobs` workers, results reduce in deterministic grid/run order. When a
/// json_name is given the cells are also dumped to BENCH_<json_name>.json.
inline std::vector<SweepCell> run_sweep(const SweepSpec& sweep, int runs, int duration_s,
                                        int jobs = 0, const char* json_name = nullptr) {
  // Declarative proto (DESIGN.md §11): one custom-device scenario with a
  // single video workload; each grid cell retargets its height/fps/seed.
  scenario::ScenarioSpec proto;
  proto.family.clear();
  proto.device_override = sweep.device;
  scenario::VideoWorkloadSpec video;
  video.platform = sweep.platform;
  video.duration_s = duration_s;
  proto.workloads.emplace_back(std::move(video));
  const auto grid = runner::run_scenario_sweep_grid(proto, sweep.states, sweep.fps, sweep.heights,
                                                    runs, jobs, sweep.base_seed);
  if (json_name != nullptr) {
    const std::string path =
        runner::write_sweep_json(json_name, grid, runs, runner::resolve_jobs(jobs),
                                 sweep.base_seed);
    if (!path.empty()) std::printf("machine-readable: %s\n", path.c_str());
  }
  std::vector<SweepCell> cells;
  cells.reserve(grid.size());
  for (const auto& cell : grid) {
    cells.push_back(SweepCell{cell.height, cell.fps, cell.state, cell.aggregate});
  }
  return cells;
}

inline const char* state_name(mem::PressureLevel level) { return mem::to_string(level); }

inline void print_drop_panel(const std::vector<SweepCell>& cells) {
  section("mean frame-drop rate, % (95% CI), played portion");
  std::printf("  %-9s %-4s", "state", "fps");
  for (const auto& cell : cells) {
    if (cell.state == cells.front().state && cell.fps == cells.front().fps) {
      std::printf("  %10dp", cell.height);
    }
  }
  std::printf("\n");
  mem::PressureLevel state = cells.front().state;
  int fps = -1;
  for (const auto& cell : cells) {
    if (cell.fps != fps || cell.state != state) {
      state = cell.state;
      fps = cell.fps;
      std::printf("\n  %-9s %-4d", state_name(state), fps);
    }
    const auto drop = cell.aggregate.drop_rate();
    std::printf("  %5.1f±%-4.1f", 100.0 * drop.mean, 100.0 * drop.ci95);
  }
  std::printf("\n");
}

inline void print_crash_panel(const std::vector<SweepCell>& cells) {
  section("client crash rate, % of runs");
  mem::PressureLevel state = cells.front().state;
  int fps = -1;
  std::printf("  %-9s %-4s\n", "state", "fps");
  for (const auto& cell : cells) {
    if (cell.fps != fps || cell.state != state) {
      state = cell.state;
      fps = cell.fps;
      std::printf("\n  %-9s %-4d", state_name(state), fps);
    }
    std::printf("  %5.0f%%    ", cell.aggregate.crash_rate_percent());
  }
  std::printf("\n");
}

inline const SweepCell* find_cell(const std::vector<SweepCell>& cells, int height, int fps,
                                  mem::PressureLevel state) {
  for (const auto& cell : cells) {
    if (cell.height == height && cell.fps == fps && cell.state == state) return &cell;
  }
  return nullptr;
}

}  // namespace mvqoe::bench
