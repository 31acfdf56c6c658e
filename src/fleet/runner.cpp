#include "fleet/runner.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "runner/batch.hpp"
#include "snapshot/digest.hpp"

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

FleetRunResult run_fleet(const FleetSpec& spec, const FleetRunOptions& opts) {
  // Round-trip the config once up front: decode validates every field,
  // so a bad spec fails loudly here instead of inside a forked worker.
  decode_fleet_config(encode_fleet_config(spec));

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t total_units = fleet_total_units(spec);

  FleetRunResult result;
  std::vector<std::string> payloads;
  std::vector<bool> completed;

  const auto devices_done_for = [&spec](std::uint64_t units_done) {
    return std::min(units_done * spec.shard_size, spec.devices);
  };

  const bool use_campaign = opts.procs > 0 || !opts.state_path.empty() || opts.resume;
  if (use_campaign) {
    campaign::CampaignOptions campaign_opts;
    campaign_opts.procs = opts.procs > 0 ? opts.procs : 1;
    campaign_opts.shard_size = opts.units_per_proc_shard;
    campaign_opts.max_attempts = opts.max_attempts;
    campaign_opts.heartbeat_timeout_ms = opts.heartbeat_timeout_ms;
    campaign_opts.state_path = opts.state_path;
    campaign_opts.resume = opts.resume;
    campaign_opts.interrupt = opts.interrupt;
    campaign_opts.hooks = opts.hooks;
    campaign_opts.config = encode_fleet_config(spec);
    campaign_opts.fingerprint = fleet_config_fingerprint(spec);
    if (opts.progress) {
      campaign_opts.progress = [&](std::uint64_t units_done, std::uint64_t) {
        opts.progress(devices_done_for(units_done), spec.devices);
      };
    }
    result.campaign = campaign::run_campaign(
        total_units, [&](std::uint64_t unit) { return run_fleet_unit(spec, unit); },
        campaign_opts);
    payloads = std::move(result.campaign.payloads);
    completed = result.campaign.completed;
    result.interrupted = result.campaign.interrupted;
    result.complete = result.campaign.complete;
  } else {
    std::mutex progress_mutex;
    std::uint64_t units_done = 0;
    auto batch = runner::run_batch(
        static_cast<std::size_t>(total_units), opts.jobs, [&](std::size_t unit) {
          if (opts.interrupt != nullptr && *opts.interrupt != 0) {
            throw std::runtime_error("fleet: interrupted");
          }
          std::string payload = run_fleet_unit(spec, static_cast<std::uint64_t>(unit));
          if (opts.progress) {
            const std::lock_guard<std::mutex> lock(progress_mutex);
            opts.progress(devices_done_for(++units_done), spec.devices);
          }
          return payload;
        });
    payloads.resize(batch.runs.size());
    completed.resize(batch.runs.size());
    for (std::size_t i = 0; i < batch.runs.size(); ++i) {
      payloads[i] = std::move(batch.runs[i].value);
      completed[i] = batch.runs[i].ok;
    }
    result.interrupted = opts.interrupt != nullptr && *opts.interrupt != 0;
    result.complete = batch.failures == 0 && !result.interrupted;
  }

  // The reduction every lane shares: ascending unit order, digest over
  // (unit, payload), merge decoded shard partials into one aggregate.
  snapshot::StateHash digest;
  for (std::uint64_t unit = 0; unit < payloads.size(); ++unit) {
    if (unit < completed.size() && !completed[unit]) continue;
    digest.mix(unit);
    digest.mix_bytes(payloads[unit]);
    result.aggregate.merge(FleetAggregate::decode(payloads[unit]));
  }
  result.digest = result.complete ? digest.value() : 0;
  result.devices_done = result.aggregate.device_count;

  const auto elapsed = std::chrono::steady_clock::now() - start;
  result.wall_s = std::chrono::duration<double>(elapsed).count();
  result.devices_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(result.devices_done) / result.wall_s : 0.0;
  result.peak_rss_mb = peak_rss_mb_now();
  return result;
}

}  // namespace mvqoe::fleet
