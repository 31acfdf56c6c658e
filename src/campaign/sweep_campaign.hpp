// Sweep campaigns: group-seeded sweep grids through campaign::run_campaign
// (DESIGN.md §13): in-process (serial or on --jobs threads) or in
// supervised worker processes.
//
// One campaign unit = one (pressure state, run) sweep group
// (runner::run_warm_group): its (fps, height) cells run serially, each
// booting the group's world and playing its own video phase, with trace
// recording off. The unit payload is the group's encoded CellRunOutcome
// vector; merging payloads in unit order reproduces
// run_sweep_grid_shared's grid exactly, so every lane's and a resumed
// campaign's BENCH json and digest match a serial run byte for byte.
//
// A sweep is a policy compare (campaign/policy_campaign) with one lane:
// both run through campaign/grid_campaign.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/coordinator.hpp"
#include "net/cc.hpp"
#include "runner/warm_sweep.hpp"

namespace mvqoe::campaign {

/// A serializable sweep grid description (the subset of the bench
/// proto-spec a campaign can checkpoint and resume).
struct SweepCampaignSpec {
  /// Paper scenario family ("fig09", "fig16", ...).
  std::string family = "fig16";
  int duration_s = 16;
  /// Organic background-app churn in the shared world phase.
  int organic_apps = 0;
  std::vector<mem::PressureLevel> states = {mem::PressureLevel::Normal};
  std::vector<int> fps = {24, 48, 60};
  std::vector<int> heights = {240, 360, 480, 720, 1080};
  int runs = 1;
  std::uint64_t seed = 5;
  /// Memory reclaim/kill policy every world in the grid runs. Baseline
  /// (the default) encodes to nothing, so historical checkpoint
  /// fingerprints are unchanged.
  mem::MemPolicySpec mem_policy;
  /// Link congestion controller every world in the grid runs. The fifo
  /// default likewise encodes to nothing.
  net::NetSpec net;
};

/// Units are (state, run) groups in state-major order:
/// unit u -> (states[u / runs], run u % runs).
std::uint64_t sweep_total_units(const SweepCampaignSpec& spec);

/// Canonical wire encoding (checkpoint config). The decoder applies
/// validate_grid.
std::string encode_sweep_config(const SweepCampaignSpec& spec);
SweepCampaignSpec decode_sweep_config(const std::string& bytes);

/// Read a checkpoint file and reconstruct the sweep spec it was
/// recorded under (--resume without re-specifying the grid).
SweepCampaignSpec load_sweep_resume_config(const std::string& path);

struct SweepCampaignResult {
  /// The run_sweep_grid_shared-shaped grid (state-major cells, per-cell
  /// aggregates in run order). Valid when `campaign.complete`; a
  /// degraded campaign leaves the missing groups' runs counted as
  /// failures in their cells.
  std::vector<runner::SweepCellResult> cells;
  /// `campaign.digest` is the sweep digest.
  CampaignResult campaign;
};

/// Run (or resume) the sweep grid through run_campaign.
/// `campaign.config` is filled in from `spec`.
SweepCampaignResult run_sweep_campaign(const SweepCampaignSpec& spec, CampaignOptions campaign);

}  // namespace mvqoe::campaign
