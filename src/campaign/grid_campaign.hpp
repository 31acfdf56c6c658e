// The lane-major grid runner behind the sweep and policy-compare
// campaigns (DESIGN.md §13, §16). Internal to src/campaign: callers use
// run_sweep_campaign / run_policy_compare.
//
// A sweep is a compare with one lane. Lane l runs `base` with only its
// mem_policy replaced by `policies[l]`; unit u -> (lane u / G, group
// u % G) with G = sweep_total_units(base) and groups state-major, so
// every lane reuses the same sweep_group_seed world streams and lanes
// differ only by policy. A unit's payload is its group's encoded
// CellRunOutcome vector; the reduction digests (unit, payload) in unit
// order and fills one state-major grid per lane.
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/coordinator.hpp"
#include "campaign/sweep_campaign.hpp"

namespace mvqoe::campaign {

struct GridCampaignResult {
  /// One state-major grid per lane; a degraded campaign counts the
  /// missing groups' runs as failures in their cells.
  std::vector<std::vector<runner::SweepCellResult>> lanes;
  /// Order-sensitive digest over (unit, payload) of the completed
  /// units; 0 unless the campaign is complete.
  std::uint64_t digest = 0;
  CampaignResult campaign;
};

/// Throws std::invalid_argument unless `base` is a non-empty grid
/// (runs, duration >= 1) on a valid link and there is at least one
/// policy, each valid. `base.mem_policy` is not checked.
void validate_grid(const SweepCampaignSpec& base, const std::vector<mem::MemPolicySpec>& policies);

/// Validate, run every unit under the coordinator and reduce.
/// `campaign.config` / `campaign.fingerprint` are the caller's.
GridCampaignResult run_grid_campaign(const SweepCampaignSpec& base,
                                     const std::vector<mem::MemPolicySpec>& policies,
                                     const CampaignOptions& campaign);

}  // namespace mvqoe::campaign
