// Sweep grids in (pressure state, run) groups.
//
// A sweep cell's simulation splits into a *world* phase (boot + pressure
// induction) and a *video* phase (the part that varies per (fps, height)
// cell). Every cell of a (state, run) group boots its world from one
// group stream and plays its video from its own cell stream, so a cell's
// outcome is a pure function of (proto, state, run, fps, height, seed):
// the same bytes as running cold_cell_spec from boot.
//
// A group runs its cells in-process with trace recording off — no sweep
// reader looks at the trace, and recording it cost more host time than
// any other single function. The group is the unit of work the sweep and
// compare campaigns hand to their lanes (src/campaign/grid_campaign).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qoe/metrics.hpp"
#include "runner/scenario_batch.hpp"
#include "scenario/spec.hpp"
#include "snapshot/bytes.hpp"

namespace mvqoe::runner {

/// One (cell, run) outcome: ok flag + the exact RunOutcome bit patterns,
/// so every lane's reduction sees identical doubles. The campaign
/// workers (src/campaign) ship this encoding in their shard payloads.
struct CellRunOutcome {
  bool ok = false;
  qoe::RunOutcome outcome;
  std::string error;
};

void encode_cell_outcome(snapshot::ByteWriter& w, const CellRunOutcome& result);
CellRunOutcome decode_cell_outcome(snapshot::ByteReader& r);

/// World stream for a (state, run) sweep group: every (fps, height) cell
/// of the group boots the same world from this seed.
std::uint64_t sweep_group_seed(std::uint64_t base, mem::PressureLevel state, int run) noexcept;

/// Video stream for one cell within a group.
std::uint64_t sweep_video_seed(std::uint64_t group_seed, int height, int fps) noexcept;

/// The empty state-major grid run_sweep_grid_shared and the sweep and
/// compare campaigns fill: one cell per (state, fps, height), cell_seed
/// the run-0 video seed.
std::vector<SweepCellResult> empty_sweep_grid(const std::vector<mem::PressureLevel>& states,
                                              const std::vector<int>& fps,
                                              const std::vector<int>& heights,
                                              std::uint64_t base_seed);

/// One cell's whole-world spec: `proto` retargeted to (state, height,
/// fps) on the group's world stream and the cell's video stream.
/// run_scenario on it gives the cell's run_warm_group outcome.
scenario::ScenarioSpec cold_cell_spec(const scenario::ScenarioSpec& proto,
                                      mem::PressureLevel state, int height, int fps,
                                      std::uint64_t group_seed);

/// Run every (fps, height) cell of the (state, run) group in-process,
/// `workers` cells at a time on runner::run_batch threads (1 = serial),
/// with trace recording off. Each cell prepares the group's world, then
/// plays its own video phase. Outcomes come back in fps-major cell order
/// (the grid layout of run_sweep_grid_shared); a cell that throws comes
/// back as an error outcome. This is the unit of work a campaign worker
/// executes per sweep shard (src/campaign/sweep_campaign).
std::vector<CellRunOutcome> run_warm_group(const scenario::ScenarioSpec& proto,
                                           mem::PressureLevel state, int run,
                                           const std::vector<int>& fps,
                                           const std::vector<int>& heights,
                                           std::uint64_t base_seed, int workers);

/// Group-seeded sweep grid: one run_warm_group per (state, run) group,
/// `jobs` groups at a time on runner::run_batch threads. Layout and
/// reduction match run_scenario_sweep_grid (cells in state-major grid
/// order, runs per cell in run order); only the seed scheme differs —
/// cell_seed reports the run-0 video seed. `proto` is a ScenarioSpec
/// whose first video workload each cell retargets.
std::vector<SweepCellResult> run_sweep_grid_shared(
    const scenario::ScenarioSpec& proto, const std::vector<mem::PressureLevel>& states,
    const std::vector<int>& fps, const std::vector<int>& heights, int runs, int jobs,
    std::uint64_t base_seed);

}  // namespace mvqoe::runner
