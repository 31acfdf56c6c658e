// One fleet device-session: world template preparation and the
// per-second usage loop (DESIGN.md §15).
//
// The session splits into a *template* phase — boot the family's
// device, preload the cohort's organic apps, idle through warmup — that
// is a pure function of the device's (family, cohort) pair, and a
// *session* phase driven by the device's own seed. Each device rebuilds
// its template in-process from the (family, cohort) world stream.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "fleet/population.hpp"
#include "fleet/spec.hpp"
#include "mem/memory_manager.hpp"
#include "proc/activity_manager.hpp"
#include "sim/engine.hpp"

namespace mvqoe::fleet {

inline constexpr int kLevels = 4;  // Normal, Moderate, Low, Critical

/// What one device-session observed — the SignalCapturer counterpart at
/// fleet scale. Sample vectors are in capture (time) order so folding
/// them preserves the aggregate's deterministic input sequence.
struct DeviceObservations {
  std::uint32_t family = 0;
  std::uint32_t cohort = 0;
  /// Trim signals delivered, by level.
  std::array<std::uint64_t, kLevels> signals{};
  /// Whole seconds spent with each level as the current state.
  std::array<std::uint32_t, kLevels> seconds_in_level{};
  std::array<std::array<std::uint32_t, kLevels>, kLevels> transitions{};
  /// (from-level, seconds) per completed dwell, in time order.
  std::vector<std::pair<std::uint8_t, double>> dwell;
  /// RAM utilization every sample_period_s, in time order.
  std::vector<double> util_samples;
  /// (level, available MB) every sample_period_s, in time order.
  std::vector<std::pair<std::uint8_t, double>> avail_samples;
};

/// A device world: engine + memory manager + activity manager, bound
/// together in construction order. Non-copyable (the memory manager
/// holds an engine reference).
class FleetWorld {
 public:
  explicit FleetWorld(const core::DeviceProfile& profile,
                      const mem::MemPolicySpec& mem_policy = {});
  FleetWorld(const FleetWorld&) = delete;
  FleetWorld& operator=(const FleetWorld&) = delete;

  sim::Engine engine;
  mem::MemoryManager memory;
  proc::ActivityManager am;
};

/// Boot + cohort preload + warmup idle. Pure in (family, cohort,
/// spec.seed, spec.warmup_s): every rebuild of the same template is
/// indistinguishable.
void prepare_world(FleetWorld& world, std::uint32_t family, std::uint32_t cohort,
                   const FleetSpec& spec);

/// Run one device's session_s seconds of usage on a prepared world.
/// Consumes the world (the session mutates it).
DeviceObservations drive_session(FleetWorld& world, const FleetDevice& device,
                                 const FleetSpec& spec);

/// Observations for every device of shard `unit`, in ascending device
/// order; each device's template is rebuilt in-process.
std::vector<DeviceObservations> run_shard_observations(const FleetSpec& spec, std::uint64_t unit);

}  // namespace mvqoe::fleet
