#include "fleet/device_session.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "net/link.hpp"
#include "proc/app_catalog.hpp"
#include "stats/rng.hpp"
#include "study/population.hpp"

namespace mvqoe::fleet {

FleetWorld::FleetWorld(const core::DeviceProfile& profile, const mem::MemPolicySpec& mem_policy)
    : engine(), memory(engine, profile.memory, mem_policy), am(memory) {}

namespace {

/// Streaming apps the fleet usage model can foreground; same footprints
/// as the study's media set (study/device_sim) so fleet pressure
/// dynamics stay comparable to the §3 results.
const std::vector<proc::AppSpec>& media_apps() {
  using mem::pages_from_mb;
  static const std::vector<proc::AppSpec> apps = {
      {"com.youtube", pages_from_mb(185), pages_from_mb(55), pages_from_mb(3), false},
      {"com.netflix", pages_from_mb(170), pages_from_mb(50), pages_from_mb(2), false},
      {"com.spotify.play", pages_from_mb(110), pages_from_mb(35), pages_from_mb(1) / 2, false},
  };
  return apps;
}

const study::FleetFamily& family_at(std::uint32_t family) {
  const auto& families = study::fleet_families();
  if (family >= families.size()) throw std::runtime_error("fleet: family index out of range");
  return families[family];
}

}  // namespace

void prepare_world(FleetWorld& world, std::uint32_t family, std::uint32_t cohort,
                   const FleetSpec& spec) {
  const study::FleetFamily& fam = family_at(family);
  const core::DeviceProfile profile = fam.profile();
  world.am.boot(profile.system_scale, profile.baseline_cached);
  world.am.enable_respawn(world.engine, profile.baseline_cached);

  stats::Rng rng(fleet_world_seed(spec.seed, family, cohort));
  const auto& pool = proc::top_free_apps();
  const int preload = cohort_preload_apps(cohort, fam.ram_mb);
  for (int i = 0; i < preload; ++i) {
    proc::AppSpec app = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    app.name += ".preload" + std::to_string(i);
    world.am.add_cached(app);
  }
  world.engine.run_until(world.engine.now() + sim::sec(spec.warmup_s));
}

DeviceObservations drive_session(FleetWorld& world, const FleetDevice& device,
                                 const FleetSpec& spec) {
  DeviceObservations obs;
  obs.family = device.family;
  obs.cohort = device.cohort;

  sim::Engine& engine = world.engine;
  mem::MemoryManager& memory = world.memory;
  proc::ActivityManager& am = world.am;

  stats::Rng rng(device.session_seed);
  memory.subscribe_trim([&obs](mem::PressureLevel level) {
    ++obs.signals[static_cast<std::size_t>(level)];
  });

  std::unordered_map<proc::ProcessId, proc::AppSpec> user_apps;
  std::vector<proc::ProcessId> open_order;

  const study::UserProfile& user = device.user;
  const double action_prob = user.app_switches_per_minute / 60.0;

  auto pick_app = [&]() -> proc::AppSpec {
    // Activity ratings weight the choice, video streaming first — the
    // same mix as the study's per-device usage model.
    const double video_w = static_cast<double>(user.rating_video);
    const double music_w = static_cast<double>(user.rating_music) * 0.5;
    const double game_w = static_cast<double>(user.rating_games) * 0.4;
    const double social_w = 4.0;
    const std::size_t kind = rng.weighted_index({video_w, music_w, game_w, social_w});
    switch (kind) {
      case 0: return media_apps()[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      case 1: return media_apps()[2];
      case 2: {
        const auto& games = proc::game_apps();
        return games[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(games.size()) - 1))];
      }
      default: {
        const auto& apps = proc::top_free_apps();
        return apps[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(apps.size()) - 1))];
      }
    }
  };

  auto cleanup_dead = [&] {
    open_order.erase(std::remove_if(open_order.begin(), open_order.end(),
                                    [&](proc::ProcessId pid) {
                                      if (memory.registry().alive(pid)) return false;
                                      user_apps.erase(pid);
                                      return true;
                                    }),
                     open_order.end());
  };

  // Congestion-controlled network duty (--cc fleets): the device gets
  // its own bottleneck link and the foreground app's feed growth is
  // gated on the link actually delivering a feed chunk — a slow or
  // lossy network starves the growth that drives memory pressure. The
  // fifo default constructs no link and leaves the session bit-identical
  // to pre-cc fleets.
  std::unique_ptr<net::Link> link;
  net::TransferId net_fetch = net::kInvalidTransfer;
  bool net_fed = true;
  if (!spec.net.is_default()) {
    link = std::make_unique<net::Link>(engine, net::LinkConfig{}, spec.net);
    net_fed = false;
  }

  mem::PressureLevel previous_level = memory.level();
  sim::Time state_entered = engine.now();

  for (int second = 0; second < spec.session_s; ++second) {
    engine.run_until(engine.now() + sim::sec(1));
    cleanup_dead();

    if (rng.bernoulli(action_prob)) {
      const double action = rng.uniform();
      if (action < 0.45 || open_order.empty()) {
        const proc::AppSpec app = pick_app();
        const proc::ProcessId pid = am.launch(app);
        user_apps[pid] = app;
        open_order.push_back(pid);
      } else if (action < 0.85) {
        const auto index = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(open_order.size()) - 1));
        am.bring_to_foreground(open_order[index]);
      } else {
        am.close(open_order.front());
        user_apps.erase(open_order.front());
        open_order.erase(open_order.begin());
      }
      while (static_cast<int>(open_order.size()) > user.max_open_apps) {
        am.close(open_order.front());
        user_apps.erase(open_order.front());
        open_order.erase(open_order.begin());
      }
    }

    // Foreground app grows (feeds, buffers) — gated on the network
    // duty's chunk delivery when a congestion-controlled link is in play.
    const proc::ProcessId foreground = am.foreground();
    if (foreground != 0) {
      const auto it = user_apps.find(foreground);
      if (it != user_apps.end() && it->second.growth_pages_per_sec > 0) {
        if (link != nullptr) {
          if (net_fetch == net::kInvalidTransfer) {
            // One ~256 KiB feed chunk per growth appetite; its delivery
            // unlocks the next growth tick.
            net_fetch = link->transfer(256 * 1024, [&net_fetch, &net_fed](bool ok) {
              net_fetch = net::kInvalidTransfer;
              net_fed = ok;
            });
          }
          if (net_fed) {
            net_fed = false;
            memory.alloc_anon(foreground, it->second.growth_pages_per_sec, 0, nullptr);
          }
        } else {
          memory.alloc_anon(foreground, it->second.growth_pages_per_sec, 0, nullptr);
        }
      }
    }

    // Level dwell/transitions every second; heavyweight samples gated.
    const auto level = memory.level();
    const auto level_index = static_cast<std::size_t>(level);
    obs.seconds_in_level[level_index] += 1;
    if (level != previous_level) {
      const auto from = static_cast<std::size_t>(previous_level);
      obs.transitions[from][level_index] += 1;
      obs.dwell.emplace_back(static_cast<std::uint8_t>(from),
                             sim::to_seconds(engine.now() - state_entered));
      previous_level = level;
      state_entered = engine.now();
    }
    if (second % spec.sample_period_s == 0) {
      obs.util_samples.push_back(memory.utilization());
      obs.avail_samples.emplace_back(static_cast<std::uint8_t>(level),
                                     mem::mb_from_pages(memory.available_pages()));
    }
  }
  // The callback captures stack locals; make sure it can never fire
  // after this frame unwinds (the engine is done, but be explicit).
  if (link != nullptr && net_fetch != net::kInvalidTransfer) link->cancel(net_fetch);
  return obs;
}

namespace {

DeviceObservations run_device_cold(const FleetDevice& device, const FleetSpec& spec) {
  FleetWorld world(family_at(device.family).profile(), spec.mem_policy);
  prepare_world(world, device.family, device.cohort, spec);
  return drive_session(world, device, spec);
}

}  // namespace

std::vector<DeviceObservations> run_shard_observations(const FleetSpec& spec, std::uint64_t unit) {
  const std::uint64_t first = unit * spec.shard_size;
  if (first >= spec.devices) throw std::invalid_argument("fleet: unit past the fleet");
  const std::uint64_t last = std::min(first + spec.shard_size, spec.devices);

  std::vector<FleetDevice> devices;
  devices.reserve(static_cast<std::size_t>(last - first));
  for (std::uint64_t d = first; d < last; ++d) {
    devices.push_back(sample_fleet_device(d, spec.seed));
  }

  std::vector<DeviceObservations> observations(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    observations[i] = run_device_cold(devices[i], spec);
  }
  return observations;
}

}  // namespace mvqoe::fleet
