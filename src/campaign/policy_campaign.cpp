#include "campaign/policy_campaign.hpp"

#include <stdexcept>
#include <utility>

#include "campaign/grid_campaign.hpp"
#include "snapshot/bytes.hpp"
#include "snapshot/digest.hpp"

namespace mvqoe::campaign {

std::uint64_t policy_total_units(const PolicyCompareSpec& spec) {
  return static_cast<std::uint64_t>(spec.policies.size()) * sweep_total_units(spec.base);
}

std::string encode_policy_config(const PolicyCompareSpec& spec) {
  snapshot::ByteWriter w;
  w.u32(1);  // config version
  // The base grid reuses the sweep campaign's canonical encoding (its
  // mem_policy field is forced to baseline — lanes override it anyway,
  // so it must not perturb the fingerprint).
  SweepCampaignSpec base = spec.base;
  base.mem_policy = {};
  w.str(encode_sweep_config(base));
  w.u32(static_cast<std::uint32_t>(spec.policies.size()));
  for (const mem::MemPolicySpec& policy : spec.policies) mem::save_policy_spec(w, policy);
  return std::move(w).take();
}

PolicyCompareSpec decode_policy_config(const std::string& bytes) {
  snapshot::ByteReader r(bytes);
  const std::uint32_t version = r.u32();
  if (version != 1) {
    throw std::runtime_error("campaign: unsupported policy-compare config version " +
                             std::to_string(version));
  }
  PolicyCompareSpec spec;
  spec.base = decode_sweep_config(r.str());
  const std::uint32_t policy_count = r.u32();
  spec.policies.reserve(policy_count);
  for (std::uint32_t i = 0; i < policy_count; ++i) {
    spec.policies.push_back(mem::load_policy_spec(r));
  }
  if (!r.done()) {
    throw std::runtime_error("campaign: trailing bytes after the policy-compare config");
  }
  validate_grid(spec.base, spec.policies);
  return spec;
}

std::uint64_t policy_config_fingerprint(const PolicyCompareSpec& spec) {
  snapshot::StateHash hash;
  hash.mix_bytes(encode_policy_config(spec));
  return hash.value();
}

PolicyCompareSpec load_policy_resume_config(const std::string& path) {
  const CheckpointState state = read_checkpoint_file(path);
  try {
    return decode_policy_config(state.config);
  } catch (const std::exception& e) {
    throw std::runtime_error("campaign: " + path + ": " + e.what());
  }
}

PolicyCompareResult run_policy_compare(const PolicyCompareSpec& spec, CampaignOptions campaign) {
  campaign.config = encode_policy_config(spec);
  campaign.fingerprint = policy_config_fingerprint(spec);
  GridCampaignResult grid = run_grid_campaign(spec.base, spec.policies, campaign);
  PolicyCompareResult result;
  for (std::size_t lane = 0; lane < spec.policies.size(); ++lane) {
    result.lanes.push_back({spec.policies[lane], std::move(grid.lanes[lane])});
  }
  result.digest = grid.digest;
  result.campaign = std::move(grid.campaign);
  return result;
}

}  // namespace mvqoe::campaign
