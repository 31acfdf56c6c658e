#include "fleet/spec.hpp"

#include <stdexcept>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "snapshot/bytes.hpp"

namespace mvqoe::fleet {

namespace {

void validate(const FleetSpec& spec) {
  if (spec.devices == 0) throw std::invalid_argument("fleet: devices must be >= 1");
  if (spec.session_s <= 0) throw std::invalid_argument("fleet: session seconds must be >= 1");
  if (spec.sample_period_s <= 0) {
    throw std::invalid_argument("fleet: sample period must be >= 1s");
  }
  if (spec.warmup_s < 0) throw std::invalid_argument("fleet: warmup must be >= 0s");
  if (spec.shard_size == 0) throw std::invalid_argument("fleet: shard size must be >= 1");
  mem::validate_policy_spec(spec.mem_policy);
  net::validate_net_spec(spec.net);
}

}  // namespace

std::uint64_t fleet_total_units(const FleetSpec& spec) {
  return (spec.devices + spec.shard_size - 1) / spec.shard_size;
}

std::string encode_fleet_config(const FleetSpec& spec) {
  snapshot::ByteWriter w;
  w.u32(1);  // config version
  w.u64(spec.devices);
  w.u64(spec.seed);
  w.i32(spec.session_s);
  w.i32(spec.sample_period_s);
  w.i32(spec.warmup_s);
  w.u64(spec.shard_size);
  // Optional tails (still config version 1), written only when
  // non-default so historical checkpoints keep their fingerprints; a
  // non-fifo net spec forces the policy spec out even at baseline.
  if (!spec.mem_policy.is_baseline() || !spec.net.is_default()) {
    mem::save_policy_spec(w, spec.mem_policy);
  }
  if (!spec.net.is_default()) net::save_net_spec(w, spec.net);
  return std::move(w).take();
}

FleetSpec decode_fleet_config(const std::string& bytes) {
  snapshot::ByteReader r(bytes);
  const std::uint32_t version = r.u32();
  if (version != 1) {
    throw std::runtime_error("fleet: unsupported config version " + std::to_string(version));
  }
  FleetSpec spec;
  spec.devices = r.u64();
  spec.seed = r.u64();
  spec.session_s = r.i32();
  spec.sample_period_s = r.i32();
  spec.warmup_s = r.i32();
  spec.shard_size = r.u64();
  if (!r.done()) spec.mem_policy = mem::load_policy_spec(r);
  if (!r.done()) spec.net = net::load_net_spec(r);
  if (!r.done()) throw std::runtime_error("fleet: trailing bytes after the fleet config");
  validate(spec);
  return spec;
}

FleetSpec load_fleet_resume_spec(const std::string& path) {
  return campaign::read_checkpoint_config(path, decode_fleet_config);
}

}  // namespace mvqoe::fleet
