#include "fleet/runner.hpp"

#include <algorithm>
#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define MVQOE_FLEET_RUSAGE 1
#else
#define MVQOE_FLEET_RUSAGE 0
#endif

namespace mvqoe::fleet {

namespace {

double peak_rss_mb_now() {
#if MVQOE_FLEET_RUSAGE
  long kb = 0;
  struct rusage self{};
  if (::getrusage(RUSAGE_SELF, &self) == 0) kb = self.ru_maxrss;
  struct rusage children{};
  if (::getrusage(RUSAGE_CHILDREN, &children) == 0) kb = std::max(kb, children.ru_maxrss);
#if defined(__APPLE__)
  return static_cast<double>(kb) / (1024.0 * 1024.0);  // ru_maxrss is bytes on macOS
#else
  return static_cast<double>(kb) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

}  // namespace

std::string run_fleet_unit(const FleetSpec& spec, std::uint64_t unit) {
  const std::vector<DeviceObservations> observations = run_shard_observations(spec, unit);
  FleetAggregate shard;
  for (const DeviceObservations& obs : observations) shard.fold(obs, spec);
  return shard.encode();
}

FleetRunResult run_fleet(const FleetSpec& spec, const campaign::CampaignOptions& opts) {
  // Round-trip the config once up front: decode validates every field,
  // so a bad spec fails loudly here instead of inside a forked worker.
  decode_fleet_config(encode_fleet_config(spec));

  const auto start = std::chrono::steady_clock::now();
  campaign::CampaignOptions campaign_opts = opts;
  campaign_opts.config = encode_fleet_config(spec);
  if (opts.progress) {
    campaign_opts.progress = [&](std::uint64_t units_done, std::uint64_t) {
      opts.progress(std::min(units_done * spec.shard_size, spec.devices), spec.devices);
    };
  }

  FleetRunResult result;
  result.campaign = campaign::run_campaign(
      fleet_total_units(spec), [&](std::uint64_t unit) { return run_fleet_unit(spec, unit); },
      campaign_opts);
  result.digest = result.campaign.digest;
  result.complete = result.campaign.complete;
  result.interrupted = result.campaign.interrupted;

  // The reduction every lane shares: merge decoded shard partials into
  // one aggregate in ascending unit order.
  for (std::uint64_t unit = 0; unit < result.campaign.payloads.size(); ++unit) {
    if (!result.campaign.completed[unit]) continue;
    result.aggregate.merge(FleetAggregate::decode(result.campaign.payloads[unit]));
  }
  result.campaign.payloads.clear();
  result.devices_done = result.aggregate.device_count;

  const auto elapsed = std::chrono::steady_clock::now() - start;
  result.wall_s = std::chrono::duration<double>(elapsed).count();
  result.devices_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(result.devices_done) / result.wall_s : 0.0;
  result.peak_rss_mb = peak_rss_mb_now();
  return result;
}

}  // namespace mvqoe::fleet
