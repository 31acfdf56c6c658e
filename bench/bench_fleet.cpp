// Fleet throughput benchmark -> BENCH_fleet.json.
//
// Runs the documented fleet smoke configuration (session 5 s, no
// warmup, 512-device shards) through the serial lane and records
// devices/sec + peak RSS + the campaign digest so fleet throughput gets
// a trajectory like BENCH_engine.json.
//
// `--smoke` runs a reduced device count as the bench ctest tier and
// exits non-zero when serial throughput falls below a conservative
// floor (half of what the reference 1-core box sustains), so a fleet
// throughput regression fails the suite instead of silently landing.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "fleet/runner.hpp"
#include "runner/json_writer.hpp"

namespace mvqoe {
namespace {

fleet::FleetSpec smoke_spec(std::uint64_t devices) {
  fleet::FleetSpec spec;
  spec.devices = devices;
  spec.seed = 7;
  spec.session_s = 5;
  spec.sample_period_s = 5;
  spec.warmup_s = 0;
  spec.shard_size = 512;
  return spec;
}

struct LaneResult {
  double devices_per_sec = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t digest = 0;
};

LaneResult best_of(const fleet::FleetSpec& spec, int reps) {
  LaneResult best;
  for (int r = 0; r < reps; ++r) {
    const fleet::FleetRunResult result = fleet::run_fleet(spec, campaign::CampaignOptions{});
    if (result.devices_per_sec > best.devices_per_sec) {
      best.devices_per_sec = result.devices_per_sec;
      best.wall_s = result.wall_s;
    }
    best.peak_rss_mb = result.peak_rss_mb;  // process high-water mark
    best.digest = result.digest;
  }
  return best;
}

}  // namespace
}  // namespace mvqoe

int main(int argc, char** argv) {
  using namespace mvqoe;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::uint64_t devices = smoke ? 4096 : 20480;
  const int reps = smoke ? 2 : 3;
  const fleet::FleetSpec spec = smoke_spec(devices);

  const LaneResult serial = best_of(spec, reps);
  std::printf("fleet serial   %8.0f devices/s  wall %.2fs  peak RSS %.1f MB  digest=%016llx\n",
              serial.devices_per_sec, serial.wall_s, serial.peak_rss_mb,
              static_cast<unsigned long long>(serial.digest));

  runner::JsonWriter json;
  json.begin_object()
      .field("bench", "fleet")
      .field("smoke", smoke)
      .field("reps", reps)
      .field("target_devices_per_sec", 10000.0);
  json.key("config").begin_object()
      .field("devices", devices)
      .field("seed", spec.seed)
      .field("session_s", spec.session_s)
      .field("sample_period_s", spec.sample_period_s)
      .field("warmup_s", spec.warmup_s)
      .field("shard_size", spec.shard_size)
      .end_object();
  json.key("serial").begin_object()
      .field("devices_per_sec", serial.devices_per_sec)
      .field("wall_s", serial.wall_s)
      .field("peak_rss_mb", serial.peak_rss_mb)
      .end_object();
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(serial.digest));
  json.field("digest", digest_hex);
  json.end_object();

  const std::string path = runner::bench_json_path("fleet");
  if (runner::write_file(path, json.str())) {
    std::printf("machine-readable: %s\n", path.c_str());
  }

  if (smoke) {
    // Regression tripwire: the reference 1-core box sustains ~10-11k
    // devices/sec on this configuration; half that means a per-device
    // cost regression (template prep storm, a fork per device, ...).
    if (serial.devices_per_sec < 5000.0) {
      std::fprintf(stderr, "FAIL: fleet serial throughput %.0f devices/sec < 5000 floor\n",
                   serial.devices_per_sec);
      return 1;
    }
  }
  return 0;
}
