// Fleet execution front-end (DESIGN.md §15).
//
// One fleet unit = one shard of devices; its payload is the shard's
// encoded FleetAggregate — a pure function of (spec, unit), exactly the
// contract campaign::run_campaign needs. run_fleet hands the units to
// run_campaign, which picks the lane (serial / --jobs threads / --procs
// supervised processes / resume), and then reduces the payloads
// identically in every lane: decode and merge in ascending unit order.
// Byte-identical digests across lanes are therefore a construction
// property, not a test hope — but tests/fleet_test.cpp asserts them
// anyway.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "campaign/coordinator.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/spec.hpp"

namespace mvqoe::fleet {

/// Only caller: mvbench/harness.cpp, which still names the old options
/// struct. Tools, tests and benches use campaign::CampaignOptions.
/// run_fleet reports `progress` in devices, not units.
using FleetRunOptions = campaign::CampaignOptions;

struct FleetRunResult {
  FleetAggregate aggregate;
  /// campaign.digest, kept by name for mvbench/harness.cpp.
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
  /// The campaign's shard history and checkpoint bookkeeping; its
  /// payloads are moved out by the reduction.
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
/// `opts.config` is filled in from `spec`; `opts.progress` receives
/// (devices_done, devices_total).
FleetRunResult run_fleet(const FleetSpec& spec, const campaign::CampaignOptions& opts);

}  // namespace mvqoe::fleet
