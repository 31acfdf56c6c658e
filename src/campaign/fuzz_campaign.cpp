#include "campaign/fuzz_campaign.hpp"

#include <stdexcept>
#include <utility>

#include "snapshot/bytes.hpp"

namespace mvqoe::campaign {

std::string encode_fuzz_config(const check::FuzzOptions& opts) {
  snapshot::ByteWriter w;
  w.u32(1);  // config version
  w.u64(opts.seed);
  w.i32(opts.runs);
  w.i32(opts.generator.max_videos);
  w.i32(opts.generator.min_duration_s);
  w.i32(opts.generator.max_duration_s);
  w.f64(opts.generator.fault_probability);
  w.f64(opts.generator.background_probability);
  w.f64(opts.generator.pressure_workload_probability);
  w.f64(opts.generator.organic_probability);
  w.b(opts.check.meta_determinism);
  w.b(opts.check.perturb_at.has_value());
  w.i64(opts.check.perturb_at ? *opts.check.perturb_at : 0);
  w.u64(opts.check.livelock_limit);
  w.i32(opts.perturb_run);
  w.i64(opts.perturb_offset);
  // Optional tails (still config version 1), written only when set so
  // historical checkpoints keep their fingerprints. The cc tail sits
  // after the policy tail, so a non-empty cc axis forces the policy
  // count out even when empty (the decoder reads them in order).
  const bool has_ccs = !opts.generator.ccs.empty();
  if (!opts.generator.policies.empty() || has_ccs) {
    w.u32(static_cast<std::uint32_t>(opts.generator.policies.size()));
    for (const std::string& name : opts.generator.policies) w.str(name);
  }
  if (has_ccs) {
    w.u32(static_cast<std::uint32_t>(opts.generator.ccs.size()));
    for (const std::string& name : opts.generator.ccs) w.str(name);
    w.f64(opts.generator.cross_traffic_probability);
  }
  return std::move(w).take();
}

check::FuzzOptions decode_fuzz_config(const std::string& bytes) {
  snapshot::ByteReader r(bytes);
  const std::uint32_t version = r.u32();
  if (version != 1) {
    throw std::runtime_error("campaign: unsupported fuzz config version " +
                             std::to_string(version));
  }
  check::FuzzOptions opts;
  opts.seed = r.u64();
  opts.runs = r.i32();
  opts.generator.max_videos = r.i32();
  opts.generator.min_duration_s = r.i32();
  opts.generator.max_duration_s = r.i32();
  opts.generator.fault_probability = r.f64();
  opts.generator.background_probability = r.f64();
  opts.generator.pressure_workload_probability = r.f64();
  opts.generator.organic_probability = r.f64();
  opts.check.meta_determinism = r.b();
  const bool has_perturb_at = r.b();
  const sim::Time perturb_at = r.i64();
  if (has_perturb_at) opts.check.perturb_at = perturb_at;
  opts.check.livelock_limit = r.u64();
  opts.perturb_run = r.i32();
  opts.perturb_offset = r.i64();
  if (!r.done()) {
    const std::uint32_t policy_count = r.u32();
    opts.generator.policies.reserve(policy_count);
    for (std::uint32_t i = 0; i < policy_count; ++i) {
      opts.generator.policies.push_back(r.str());
    }
  }
  if (!r.done()) {
    const std::uint32_t cc_count = r.u32();
    opts.generator.ccs.reserve(cc_count);
    for (std::uint32_t i = 0; i < cc_count; ++i) {
      opts.generator.ccs.push_back(r.str());
    }
    opts.generator.cross_traffic_probability = r.f64();
  }
  if (!r.done()) {
    throw std::runtime_error("campaign: trailing bytes after the fuzz config");
  }
  if (opts.runs < 0) {
    throw std::runtime_error("campaign: fuzz config has a negative run count");
  }
  return opts;
}

check::FuzzOptions load_fuzz_resume_config(const std::string& path) {
  return read_checkpoint_config(path, decode_fuzz_config);
}

FuzzCampaignResult run_fuzz_campaign(const check::FuzzOptions& fuzz, CampaignOptions campaign) {
  campaign.config = encode_fuzz_config(fuzz);

  const auto unit_fn = [&fuzz](std::uint64_t unit) {
    snapshot::ByteWriter w;
    check::encode_run_record(w, check::execute_fuzz_run(fuzz, unit));
    return std::move(w).take();
  };

  FuzzCampaignResult result;
  result.campaign =
      run_campaign(static_cast<std::uint64_t>(fuzz.runs), unit_fn, campaign);

  std::vector<check::RunRecord> records;
  records.reserve(static_cast<std::size_t>(result.campaign.units_done));
  for (std::size_t i = 0; i < result.campaign.payloads.size(); ++i) {
    if (!result.campaign.completed[i]) continue;
    snapshot::ByteReader r(result.campaign.payloads[i]);
    check::RunRecord record = check::decode_run_record(r);
    if (record.index != i) {
      throw std::runtime_error("campaign: unit " + std::to_string(i) +
                               " carries a record for run " + std::to_string(record.index));
    }
    records.push_back(std::move(record));
  }
  result.summary = check::summarize_records(fuzz, records);
  if (!result.campaign.complete) {
    // A partial campaign has no comparable jobs-invariant digest.
    result.summary.digest = 0;
    result.summary.runs = fuzz.runs;
  }
  return result;
}

}  // namespace mvqoe::campaign
