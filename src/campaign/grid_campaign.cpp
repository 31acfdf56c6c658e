#include "campaign/grid_campaign.hpp"

#include <stdexcept>
#include <utility>

#include "snapshot/bytes.hpp"
#include "snapshot/digest.hpp"

namespace mvqoe::campaign {

namespace {

/// The bench proto-spec the grid retargets per cell: one video session
/// on the family's device, optional organic churn in the world phase.
scenario::ScenarioSpec sweep_proto(const SweepCampaignSpec& spec) {
  scenario::ScenarioSpec proto;
  proto.family = spec.family;
  proto.organic_background_apps = spec.organic_apps;
  proto.mem_policy = spec.mem_policy;
  proto.net = spec.net;
  scenario::VideoWorkloadSpec session;
  session.duration_s = spec.duration_s;
  proto.workloads.emplace_back(std::move(session));
  return proto;
}

/// A unit's payload: its group's CellRunOutcome vector, fps-major.
std::string encode_group(const std::vector<runner::CellRunOutcome>& group) {
  snapshot::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(group.size()));
  for (const runner::CellRunOutcome& outcome : group) runner::encode_cell_outcome(w, outcome);
  return std::move(w).take();
}

std::vector<runner::CellRunOutcome> decode_group(const std::string& payload, std::size_t cells,
                                                 std::size_t unit) {
  snapshot::ByteReader r(payload);
  const std::uint32_t count = r.u32();
  if (count != cells) {
    throw std::runtime_error("campaign: grid unit " + std::to_string(unit) + " carries " +
                             std::to_string(count) + " cells, grid has " +
                             std::to_string(cells));
  }
  std::vector<runner::CellRunOutcome> group;
  group.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) group.push_back(runner::decode_cell_outcome(r));
  if (!r.done()) {
    throw std::runtime_error("campaign: trailing bytes in grid unit " + std::to_string(unit));
  }
  return group;
}

}  // namespace

void validate_grid(const SweepCampaignSpec& base, const std::vector<mem::MemPolicySpec>& policies) {
  if (base.runs <= 0) throw std::invalid_argument("campaign: sweep runs must be >= 1");
  if (base.states.empty() || base.fps.empty() || base.heights.empty()) {
    throw std::invalid_argument("campaign: sweep grid has an empty axis");
  }
  if (base.duration_s <= 0) {
    throw std::invalid_argument("campaign: sweep duration must be >= 1s");
  }
  if (policies.empty()) {
    throw std::invalid_argument("campaign: compare needs at least one policy");
  }
  for (const mem::MemPolicySpec& policy : policies) mem::validate_policy_spec(policy);
  net::validate_net_spec(base.net);
}

GridCampaignResult run_grid_campaign(const SweepCampaignSpec& base,
                                     const std::vector<mem::MemPolicySpec>& policies,
                                     const CampaignOptions& campaign) {
  validate_grid(base, policies);
  std::vector<scenario::ScenarioSpec> protos;
  protos.reserve(policies.size());
  for (const mem::MemPolicySpec& policy : policies) {
    protos.push_back(sweep_proto(base));
    protos.back().mem_policy = policy;
  }

  const std::uint64_t groups_per_lane = sweep_total_units(base);
  const auto runs = static_cast<std::uint64_t>(base.runs);
  const int group_workers = base.group_workers > 0 ? base.group_workers : 1;
  const auto unit_fn = [&](std::uint64_t unit) {
    const std::uint64_t group = unit % groups_per_lane;
    // Same (state, run) -> same sweep_group_seed in every lane: the
    // lanes boot identically-seeded worlds and differ only by policy.
    return encode_group(runner::run_warm_group(
        protos.at(static_cast<std::size_t>(unit / groups_per_lane)),
        base.states.at(static_cast<std::size_t>(group / runs)), static_cast<int>(group % runs),
        base.fps, base.heights, base.seed, group_workers));
  };

  GridCampaignResult result;
  result.campaign = run_campaign(policies.size() * groups_per_lane, unit_fn, campaign);
  result.lanes.assign(policies.size(),
                      runner::empty_sweep_grid(base.states, base.fps, base.heights, base.seed));

  const std::size_t cells_per_state = base.fps.size() * base.heights.size();
  snapshot::StateHash digest;
  for (std::size_t unit = 0; unit < result.campaign.payloads.size(); ++unit) {
    const std::uint64_t group = unit % groups_per_lane;
    runner::SweepCellResult* cells =
        &result.lanes[static_cast<std::size_t>(unit / groups_per_lane)]
                     [static_cast<std::size_t>(group / runs) * cells_per_state];
    if (!result.campaign.completed[unit]) {
      // Degraded campaign: the whole group's runs count as failures.
      for (std::size_t c = 0; c < cells_per_state; ++c) ++cells[c].failures;
      continue;
    }
    digest.mix(unit);
    digest.mix_bytes(result.campaign.payloads[unit]);
    const std::vector<runner::CellRunOutcome> group_outcomes =
        decode_group(result.campaign.payloads[unit], cells_per_state, unit);
    for (std::size_t c = 0; c < cells_per_state; ++c) {
      if (group_outcomes[c].ok) {
        cells[c].aggregate.add(group_outcomes[c].outcome);
      } else {
        ++cells[c].failures;
      }
    }
  }
  result.digest = result.campaign.complete ? digest.value() : 0;
  return result;
}

}  // namespace mvqoe::campaign
