// Fleet execution front-end (DESIGN.md §15).
//
// One fleet unit = one shard of devices; its payload is the shard's
// encoded FleetAggregate — a pure function of (spec, unit), exactly the
// contract the campaign coordinator and the thread-pool batch runner
// already guarantee for their payloads. run_fleet picks the execution
// lane (serial / --jobs threads / --procs supervised processes /
// resume) and then reduces the payloads identically in every lane:
// decode and merge in ascending unit order. Byte-identical digests
// across lanes are therefore a construction property, not a test hope —
// but tests/fleet_test.cpp asserts them anyway.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "campaign/coordinator.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/spec.hpp"

namespace mvqoe::fleet {

struct FleetRunOptions {
  /// Worker threads for the in-process lane (used when procs == 0 and
  /// no checkpointing is requested). 1 = serial reference.
  int jobs = 1;
  /// Worker processes; > 0 (or a state_path/resume) engages the
  /// campaign coordinator.
  int procs = 0;
  /// Campaign units per coordinator shard (crash-retry granularity).
  std::size_t units_per_proc_shard = 2;
  /// Campaign checkpoint file ("" = no checkpointing).
  std::string state_path;
  bool resume = false;
  int max_attempts = 3;
  int heartbeat_timeout_ms = 120000;
  const volatile std::sig_atomic_t* interrupt = nullptr;
  /// (devices_done, devices_total), called as shard payloads land.
  std::function<void(std::uint64_t, std::uint64_t)> progress;
  campaign::TestHooks hooks;
};

struct FleetRunResult {
  FleetAggregate aggregate;
  /// Order-sensitive digest over (unit, payload) — the campaign digest.
  /// 0 unless complete.
  std::uint64_t digest = 0;
  bool complete = false;
  bool interrupted = false;
  std::uint64_t devices_done = 0;
  /// Throughput bookkeeping for BENCH_fleet.json.
  double wall_s = 0.0;
  double devices_per_sec = 0.0;
  /// Peak RSS (MB) of this process and, in the procs lane, the largest
  /// worker — the O(shard) bound the fleet design promises.
  double peak_rss_mb = 0.0;
  /// Filled in the coordinator lane; empty shards vector otherwise.
  campaign::CampaignResult campaign;
};

/// One shard's payload: observations for every device of `unit`, folded
/// in ascending device order into a fresh aggregate, encoded.
std::string run_fleet_unit(const FleetSpec& spec, std::uint64_t unit);

/// Only caller: mvbench/harness.cpp, which still passes the removed
/// warm flag as `false`. `true` is rejected; the lane no longer exists.
inline std::string run_fleet_unit(const FleetSpec& spec, std::uint64_t unit, bool warm) {
  return warm ? throw std::invalid_argument("fleet: no warm lane") : run_fleet_unit(spec, unit);
}

/// Run (or resume) the fleet and reduce to a single aggregate.
FleetRunResult run_fleet(const FleetSpec& spec, const FleetRunOptions& opts);

}  // namespace mvqoe::fleet
