// Fuzz campaigns: check/harness fuzzing through campaign::run_campaign
// (DESIGN.md §12, §13).
//
// One campaign unit = one fuzz run. The unit function executes
// check::execute_fuzz_run and returns the encoded RunRecord as the
// unit payload, in whichever lane run_campaign picks: in-process
// threads, or supervised worker processes whose payloads are
// checkpointed per shard, so a killed campaign resumes with the
// completed runs' records intact. Either way the final summary —
// including the jobs-invariant record digest — is byte-identical to
// the serial check::run_fuzz.
//
// The checkpoint stores the canonical encoding of the FuzzOptions that
// produced it (minus --jobs/--procs, which may legally differ between
// the original and resumed invocations); --resume reconstructs the
// options from the blob, and the coordinator refuses a checkpoint whose
// config fingerprint differs, so a checkpoint can never silently
// continue under a different campaign configuration.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/coordinator.hpp"
#include "check/harness.hpp"

namespace mvqoe::campaign {

/// Canonical wire encoding of the digest-relevant FuzzOptions (seed,
/// runs, generator, check options, perturb hooks — everything except
/// the parallelism knobs). Stored verbatim in the checkpoint.
std::string encode_fuzz_config(const check::FuzzOptions& opts);
check::FuzzOptions decode_fuzz_config(const std::string& bytes);

/// Read a checkpoint file and reconstruct the FuzzOptions it was
/// recorded under (for --resume without re-specifying flags). Throws
/// with a path-prefixed diagnostic on missing/corrupt checkpoints.
check::FuzzOptions load_fuzz_resume_config(const std::string& path);

struct FuzzCampaignResult {
  /// Valid when `campaign.complete`; for a degraded campaign the
  /// failure list covers the completed runs and `summary.digest` is 0
  /// (a partial campaign has no comparable digest).
  check::FuzzSummary summary;
  CampaignResult campaign;
};

/// Run (or resume) a fuzz campaign through run_campaign.
/// `campaign.config` is filled in from `fuzz`; `fuzz.jobs` is ignored
/// (`campaign.jobs` sizes the in-process lane).
FuzzCampaignResult run_fuzz_campaign(const check::FuzzOptions& fuzz, CampaignOptions campaign);

}  // namespace mvqoe::campaign
