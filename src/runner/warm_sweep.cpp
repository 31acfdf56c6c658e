#include "runner/warm_sweep.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "runner/batch.hpp"
#include "scenario/driver.hpp"
#include "snapshot/bytes.hpp"
#include "stats/rng.hpp"

namespace mvqoe::runner {

void encode_cell_outcome(snapshot::ByteWriter& w, const CellRunOutcome& result) {
  w.b(result.ok);
  if (!result.ok) {
    w.str(result.error);
    return;
  }
  const qoe::RunOutcome& o = result.outcome;
  w.f64(o.drop_rate);
  w.b(o.crashed);
  w.b(o.aborted);
  w.f64(o.mean_pss_mb);
  w.f64(o.peak_pss_mb);
  w.f64(o.startup_delay_s);
  w.i32(o.relaunches);
  w.i32(o.rebuffer_events);
  w.f64(o.relaunch_downtime_s);
}

CellRunOutcome decode_cell_outcome(snapshot::ByteReader& r) {
  CellRunOutcome result;
  result.ok = r.b();
  if (!result.ok) {
    result.error = r.str();
    return result;
  }
  qoe::RunOutcome& o = result.outcome;
  o.drop_rate = r.f64();
  o.crashed = r.b();
  o.aborted = r.b();
  o.mean_pss_mb = r.f64();
  o.peak_pss_mb = r.f64();
  o.startup_delay_s = r.f64();
  o.relaunches = r.i32();
  o.rebuffer_events = r.i32();
  o.relaunch_downtime_s = r.f64();
  return result;
}

std::uint64_t sweep_group_seed(std::uint64_t base, mem::PressureLevel state, int run) noexcept {
  std::uint64_t seed = stats::derive_seed(base, 0x57524C44ULL /* "WRLD" */);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(state) + 1);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(run) + 1);
  return seed;
}

std::uint64_t sweep_video_seed(std::uint64_t group_seed, int height, int fps) noexcept {
  std::uint64_t seed = stats::derive_seed(group_seed, 0x56494445ULL /* "VIDE" */);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(height));
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(fps));
  return seed;
}

std::vector<SweepCellResult> empty_sweep_grid(const std::vector<mem::PressureLevel>& states,
                                              const std::vector<int>& fps,
                                              const std::vector<int>& heights,
                                              std::uint64_t base_seed) {
  std::vector<SweepCellResult> cells;
  cells.reserve(states.size() * fps.size() * heights.size());
  for (const auto state : states) {
    for (const int f : fps) {
      for (const int h : heights) {
        SweepCellResult cell;
        cell.height = h;
        cell.fps = f;
        cell.state = state;
        cell.cell_seed = sweep_video_seed(sweep_group_seed(base_seed, state, 0), h, f);
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

scenario::ScenarioSpec cold_cell_spec(const scenario::ScenarioSpec& proto,
                                      mem::PressureLevel state, int height, int fps,
                                      std::uint64_t group_seed) {
  scenario::ScenarioSpec spec = proto;
  scenario::VideoWorkloadSpec& video = scenario::video_spec(spec);
  video.height = height;
  video.fps = fps;
  spec.state = state;
  spec.world_seed = group_seed;
  const std::uint64_t video_seed = sweep_video_seed(group_seed, height, fps);
  spec.seed = video_seed;
  video.seed = video_seed;
  return spec;
}

std::vector<CellRunOutcome> run_warm_group(const scenario::ScenarioSpec& proto,
                                           mem::PressureLevel state, int run,
                                           const std::vector<int>& fps,
                                           const std::vector<int>& heights,
                                           std::uint64_t base_seed, int workers) {
  const std::uint64_t group_seed = sweep_group_seed(base_seed, state, run);
  scenario::ScenarioSpec world_spec = proto;
  world_spec.state = state;
  world_spec.world_seed = group_seed;
  world_spec.seed = group_seed;                          // placeholder;
  scenario::video_spec(world_spec).seed = group_seed;    // every cell retargets

  // Cells in fps-major order, each on its own world prepared from the
  // group's stream with trace recording off: nothing reads a sweep
  // cell's trace, and the outcome bytes do not depend on it.
  auto batch = run_batch(fps.size() * heights.size(), std::max(workers, 1), [&](std::size_t c) {
    const int f = fps[c / heights.size()];
    const int h = heights[c % heights.size()];
    scenario::ScenarioDriver driver(world_spec);
    driver.testbed().tracer.set_recording(false);
    driver.prepare();
    driver.set_cell(h, f, sweep_video_seed(group_seed, h, f));
    driver.start();
    while (driver.advance_slice()) {
    }
    return driver.finalize().sessions.at(0).result.outcome;
  });
  std::vector<CellRunOutcome> outcomes(batch.runs.size());
  for (std::size_t c = 0; c < outcomes.size(); ++c) {
    outcomes[c].ok = batch.runs[c].ok;
    outcomes[c].outcome = batch.runs[c].value;
    outcomes[c].error = std::move(batch.runs[c].error);
  }
  return outcomes;
}

std::vector<SweepCellResult> run_sweep_grid_shared(
    const scenario::ScenarioSpec& proto, const std::vector<mem::PressureLevel>& states,
    const std::vector<int>& fps, const std::vector<int>& heights, int runs, int jobs,
    std::uint64_t base_seed) {
  if (runs <= 0) return {};
  std::vector<SweepCellResult> cells = empty_sweep_grid(states, fps, heights, base_seed);
  const auto cells_per_state = fps.size() * heights.size();

  // One (state, run) group per batch unit, state-major; each group runs
  // its cells serially. Every cell sees its runs in run order.
  const auto runs_per_state = static_cast<std::size_t>(runs);
  const auto groups = run_batch(states.size() * runs_per_state, jobs, [&](std::size_t g) {
    return run_warm_group(proto, states[g / runs_per_state], static_cast<int>(g % runs_per_state),
                          fps, heights, base_seed, 1);
  });
  for (std::size_t g = 0; g < groups.runs.size(); ++g) {
    const auto& group = groups.runs[g];
    SweepCellResult* state_cells = &cells[(g / runs_per_state) * cells_per_state];
    for (std::size_t c = 0; c < cells_per_state; ++c) {
      if (group.ok && group.value[c].ok) {
        state_cells[c].aggregate.add(group.value[c].outcome);
      } else {
        ++state_cells[c].failures;
      }
    }
  }
  return cells;
}

}  // namespace mvqoe::runner
