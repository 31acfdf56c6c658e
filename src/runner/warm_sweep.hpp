// Warm-start sweep grids: checkpoint the shared startup phase once, fork
// the video phase per cell.
//
// A sweep cell's simulation splits into a *world* phase (boot + pressure
// induction — identical for every (fps, height) cell of a pressure state)
// and a *video* phase (the part that varies). The cold path re-simulates
// the world for every cell; the warm path prepares it once per
// (state, run) group and forks a child process per cell, so the copy-on-
// write image carries the full world state — including the engine's
// closure-holding event queue, which no serializer could (DESIGN.md §10).
//
// Both modes use the same seed scheme (one world stream per group, one
// video stream per cell), so Warm must reproduce Cold byte-for-byte —
// the warm-vs-cold identity test and bench assert exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qoe/metrics.hpp"
#include "runner/scenario_batch.hpp"
#include "scenario/spec.hpp"
#include "snapshot/bytes.hpp"

namespace mvqoe::runner {

/// One (cell, run) outcome crossing a fork pipe (or, in cold mode,
/// produced in-process): ok flag + the exact RunOutcome bit patterns, so
/// warm and cold reductions see identical doubles. The campaign workers
/// (src/campaign) ship the same encoding in their shard payloads.
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

enum class SweepMode {
  Cold,  // every (cell, run) simulated from boot on the thread pool
  Warm,  // one prepared world per (state, run) group, cells forked from it;
         // degrades to Cold (same results) when !fork_supported()
};

/// The empty state-major grid run_sweep_grid_shared and the sweep and
/// compare campaigns fill: one cell per (state, fps, height), cell_seed
/// the run-0 video seed.
std::vector<SweepCellResult> empty_sweep_grid(const std::vector<mem::PressureLevel>& states,
                                              const std::vector<int>& fps,
                                              const std::vector<int>& heights,
                                              std::uint64_t base_seed);

/// Prepare the (state, run) group's shared world once and run every
/// (fps, height) cell's video phase from it — each cell in a forked
/// copy-on-write child, `workers` at a time. Outcomes come back in
/// fps-major cell order (the grid layout of run_sweep_grid_shared).
/// Degrades to per-cell cold runs (same seeds, same outcomes) when the
/// platform has no fork. This is the unit of work a campaign worker
/// executes per sweep shard (src/campaign/sweep_campaign).
std::vector<CellRunOutcome> run_warm_group(const scenario::ScenarioSpec& proto,
                                           mem::PressureLevel state, int run,
                                           const std::vector<int>& fps,
                                           const std::vector<int>& heights,
                                           std::uint64_t base_seed, int workers);

/// Shared-world sweep grid. Layout and reduction match
/// run_scenario_sweep_grid (cells in state-major grid order, runs per
/// cell in run order); only the seed scheme differs — cell_seed reports
/// the run-0 video seed. `proto` is a ScenarioSpec whose first video
/// workload each cell retargets.
std::vector<SweepCellResult> run_sweep_grid_shared(
    const scenario::ScenarioSpec& proto, const std::vector<mem::PressureLevel>& states,
    const std::vector<int>& fps, const std::vector<int>& heights, int runs, int jobs,
    std::uint64_t base_seed, SweepMode mode);

}  // namespace mvqoe::runner
