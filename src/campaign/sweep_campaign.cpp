#include "campaign/sweep_campaign.hpp"

#include <stdexcept>
#include <utility>

#include "campaign/grid_campaign.hpp"
#include "snapshot/bytes.hpp"

namespace mvqoe::campaign {

std::uint64_t sweep_total_units(const SweepCampaignSpec& spec) {
  return static_cast<std::uint64_t>(spec.states.size()) * static_cast<std::uint64_t>(spec.runs);
}

std::string encode_sweep_config(const SweepCampaignSpec& spec) {
  snapshot::ByteWriter w;
  w.u32(1);  // config version
  w.str(spec.family);
  w.i32(spec.duration_s);
  w.i32(spec.organic_apps);
  w.u32(static_cast<std::uint32_t>(spec.states.size()));
  for (const auto state : spec.states) w.u8(static_cast<std::uint8_t>(state));
  w.u32(static_cast<std::uint32_t>(spec.fps.size()));
  for (const int f : spec.fps) w.i32(f);
  w.u32(static_cast<std::uint32_t>(spec.heights.size()));
  for (const int h : spec.heights) w.i32(h);
  w.i32(spec.runs);
  w.u64(spec.seed);
  // Optional tails (still config version 1), written only when
  // non-default so historical checkpoints keep their fingerprints. The
  // net tail follows the policy tail, so a non-fifo link forces the
  // policy spec out even at baseline (the decoder reads them in order).
  if (!spec.mem_policy.is_baseline() || !spec.net.is_default()) {
    mem::save_policy_spec(w, spec.mem_policy);
  }
  if (!spec.net.is_default()) net::save_net_spec(w, spec.net);
  return std::move(w).take();
}

SweepCampaignSpec decode_sweep_config(const std::string& bytes) {
  snapshot::ByteReader r(bytes);
  const std::uint32_t version = r.u32();
  if (version != 1) {
    throw std::runtime_error("campaign: unsupported sweep config version " +
                             std::to_string(version));
  }
  SweepCampaignSpec spec;
  spec.family = r.str();
  spec.duration_s = r.i32();
  spec.organic_apps = r.i32();
  spec.states.clear();
  const std::uint32_t state_count = r.u32();
  for (std::uint32_t i = 0; i < state_count; ++i) {
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(mem::PressureLevel::Critical)) {
      throw std::runtime_error("campaign: sweep config pressure state byte " +
                               std::to_string(state) + " is not a PressureLevel");
    }
    spec.states.push_back(static_cast<mem::PressureLevel>(state));
  }
  spec.fps.clear();
  const std::uint32_t fps_count = r.u32();
  for (std::uint32_t i = 0; i < fps_count; ++i) spec.fps.push_back(r.i32());
  spec.heights.clear();
  const std::uint32_t height_count = r.u32();
  for (std::uint32_t i = 0; i < height_count; ++i) spec.heights.push_back(r.i32());
  spec.runs = r.i32();
  spec.seed = r.u64();
  if (!r.done()) spec.mem_policy = mem::load_policy_spec(r);
  if (!r.done()) spec.net = net::load_net_spec(r);
  if (!r.done()) {
    throw std::runtime_error("campaign: trailing bytes after the sweep config");
  }
  validate_grid(spec, {spec.mem_policy});
  return spec;
}

SweepCampaignSpec load_sweep_resume_config(const std::string& path) {
  return read_checkpoint_config(path, decode_sweep_config);
}

SweepCampaignResult run_sweep_campaign(const SweepCampaignSpec& spec, CampaignOptions campaign) {
  campaign.config = encode_sweep_config(spec);
  GridCampaignResult grid = run_grid_campaign(spec, {spec.mem_policy}, campaign);
  return {std::move(grid.lanes.front()), std::move(grid.campaign)};
}

}  // namespace mvqoe::campaign
