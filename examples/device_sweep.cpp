// Cross-device sweep: the paper's central comparison (entry-level vs
// mid-range vs higher-end) in one program. For each device preset, play
// the same video across the quality ladder at Normal and Moderate
// pressure and print the QoE matrix — the quickest way to see where a
// given device's "memory wall" sits.
//
//   $ ./examples/device_sweep [--jobs N] [--json]
//
// Every cell is an independent seeded run with its own simulation world,
// so the grid fans out across N worker threads (default: MVQOE_JOBS or
// all hardware threads). Results are collected and printed in grid order
// no matter which worker finishes first: the output is byte-identical
// for any N, and --jobs 1 is the serial reference.
#include <cstdio>
#include <cstring>

#include "runner/scenario_batch.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  const int jobs = runner::jobs_from_args(argc, argv);
  bool emit_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) emit_json = true;
  }

  const std::vector<int> heights = {480, 720, 1080};
  const std::vector<int> rates = {30, 60};
  const std::vector<mem::PressureLevel> states = {mem::PressureLevel::Normal,
                                                  mem::PressureLevel::Moderate};
  constexpr std::uint64_t kSeed = 21;
  constexpr int kRunsPerCell = 1;

  for (const core::DeviceProfile& device : core::all_devices()) {
    // Custom-device scenario (no paper family): Firefox, 40 s video; each
    // grid cell retargets height, fps, state and seed.
    scenario::ScenarioSpec proto =
        scenario::single_video("", 1080, 30, 40, mem::PressureLevel::Normal, 1);
    proto.device_override = device;
    const auto cells = runner::run_scenario_sweep_grid(proto, states, rates, heights,
                                                       kRunsPerCell, jobs, kSeed);

    std::printf("=== %s (%lld MB RAM, %zu cores)\n", device.name.c_str(),
                static_cast<long long>(device.ram_mb), device.scheduler.cores.size());
    std::printf("    %-9s", "state");
    for (const int fps : rates) {
      for (const int height : heights) std::printf("  %4dp@%-2d", height, fps);
    }
    std::printf("\n");
    mem::PressureLevel state{};
    bool first = true;
    for (const auto& cell : cells) {
      if (first || cell.state != state) {
        if (!first) std::printf("\n");
        state = cell.state;
        first = false;
        std::printf("    %-9s", mem::to_string(state));
      }
      if (cell.failures > 0 || cell.aggregate.runs() == 0) {
        std::printf("  %7s ", "FAIL");
      } else if (cell.aggregate.outcomes().front().crashed) {
        std::printf("  %7s*", "CRASH");
      } else {
        std::printf("  %6.1f%% ", 100.0 * cell.aggregate.outcomes().front().drop_rate);
      }
    }
    std::printf("\n\n");

    if (emit_json) {
      std::string name = "device_sweep_" + device.name;
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      const std::string path =
          runner::write_sweep_json(name, cells, kRunsPerCell, runner::resolve_jobs(jobs), kSeed);
      if (!path.empty()) std::printf("    machine-readable: %s\n\n", path.c_str());
    }
  }
  std::printf("cells: frame-drop rate over the played portion; CRASH* = lmkd killed the player\n");
  return 0;
}
