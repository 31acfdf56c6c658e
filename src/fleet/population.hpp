// Fleet population sampling (DESIGN.md §15).
//
// Where the §3 field study samples per-device *hardware* (every
// StudyDevice is a unique world), a fleet device is drawn from a small
// catalog of pinned device families × organic-preload cohorts, so that
// one world template per (family, cohort) can serve millions of
// devices. Usage behaviour
// (survey ratings, switch rate, multitasking cap) is still sampled per
// device with the study's distributions, so the population marginals
// match the paper's.
//
// Every function here is a pure function of (index, seed): shards can
// sample any slice of a 10^6-device population without materialising
// the rest, and a resumed shard resamples its devices bit-identically.
#pragma once

#include <cstdint>

#include "study/population.hpp"

namespace mvqoe::fleet {

/// Organic-preload cohorts: how crowded the device's cached-app LRU is
/// before the session starts (0 = light, 1 = typical, 2 = heavy).
inline constexpr std::uint32_t kCohorts = 3;

struct FleetDevice {
  std::uint64_t index = 0;
  /// Index into study::fleet_families().
  std::uint32_t family = 0;
  /// Organic preload cohort, < kCohorts.
  std::uint32_t cohort = 0;
  study::UserProfile user;
  /// Seed for the device's session stream (user actions, app choices).
  std::uint64_t session_seed = 0;
};

/// Sample device `index` of the fleet population (pure in (index, seed)).
FleetDevice sample_fleet_device(std::uint64_t index, std::uint64_t seed);

/// Extra cached apps preloaded into a cohort's world template on top of
/// the family's baseline: 0 / 3 / 6 for light / typical / heavy usage,
/// capped at what the tier's RAM can physically retain (2 per GB) — a
/// 1 GB device never *holds* six preloaded apps, lmkd would already
/// have evicted them before the session started.
int cohort_preload_apps(std::uint32_t cohort, std::int64_t ram_mb) noexcept;

/// World-template stream for a (family, cohort) pair — disjoint from
/// every device stream by construction (bit 32 set).
std::uint64_t fleet_world_seed(std::uint64_t seed, std::uint32_t family,
                               std::uint32_t cohort) noexcept;

}  // namespace mvqoe::fleet
