// The campaign front door (DESIGN.md §13): every campaign — fuzz, sweep,
// policy compare, fleet — maps (config, unit) -> payload bytes and hands
// the unit function to run_campaign, which alone picks the lane:
//
//   - in-process: procs == 0, no checkpoint path, no resume. Units run
//     through runner::run_batch on `jobs` threads (serial at jobs == 1,
//     the reference every other lane must match byte for byte).
//   - supervised: anything else. The coordinator partitions the units
//     into contiguous shards, fork()s one supervised worker process per
//     shard (up to max(procs, 1) concurrently), and collects per-unit
//     payloads over pipes.
//
// In the supervised lane each payload frame doubles as a heartbeat: a
// worker that sends nothing for heartbeat_timeout_ms is SIGKILLed and
// its shard retried with exponential backoff. Units a crashed attempt
// already delivered are kept — payloads are pure functions of the unit
// index — so a retry only re-runs the remainder. A shard that exhausts
// max_attempts is recorded as a Failed ShardOutcome and the campaign
// degrades instead of hanging or losing the other shards' work.
//
// Progress is checkpointed (campaign/checkpoint) after every shard
// completion with an atomic file replace, so kill -9 on the coordinator
// — or the whole machine going down — costs at most the in-flight
// shards; a resumed campaign re-runs only the missing units and, because
// units are deterministic and the digest folds them in index order,
// produces byte-identical campaign results.
//
// The worker body (`UnitFn`) runs in the forked child: it inherits the
// coordinator's prepared state copy-on-write and must not rely on
// threads — the coordinator is single-threaded precisely so fork()
// stays safe.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"

namespace mvqoe::campaign {

/// Runs in the worker process; returns the unit's result payload bytes.
/// Deterministic: the payload must be a pure function of `unit` (plus
/// the campaign configuration captured by the closure). Exceptions
/// escape into a worker exit that the coordinator retries.
using UnitFn = std::function<std::string(std::uint64_t unit)>;

/// Deterministic failure-injection hooks (the campaign counterpart of
/// the fuzzer's --perturb-run): crash or hang a worker at a chosen unit
/// for the first `*_attempts` shard attempts, or SIGKILL the
/// coordinator itself right after its Nth progress checkpoint. They act
/// in the supervised lane only.
struct TestHooks {
  std::int64_t abort_unit = -1;
  int abort_attempts = 0;     // shard attempts (1-based) that crash
  int abort_signal = SIGKILL;
  std::int64_t hang_unit = -1;
  int hang_attempts = 0;      // shard attempts that hang (heartbeat test)
  int kill_after_checkpoints = 0;  // 0 = disabled
};

struct CampaignOptions {
  /// Supervised worker processes; 0 (with no state_path and no resume)
  /// runs the units in-process on `jobs` threads instead.
  int procs = 0;
  /// In-process worker threads (resolved by runner::resolve_jobs);
  /// 1 = the serial reference. Ignored by the supervised lane.
  int jobs = 1;
  /// Units per shard — the granularity of crash isolation and retry.
  std::size_t shard_size = 8;
  /// Total attempts per shard (first run + retries).
  int max_attempts = 3;
  /// A worker silent for this long is declared hung and SIGKILLed.
  int heartbeat_timeout_ms = 120000;
  /// Relaunch delay after a crashed attempt; doubles per further retry.
  int backoff_ms = 100;
  /// Checkpoint file ("" = run without checkpointing).
  std::string state_path;
  /// Opaque app configuration stored in the checkpoint for --resume.
  /// The coordinator fingerprints it (StateHash over the bytes); a
  /// resume under a different config is rejected loudly.
  std::string config;
  /// Load state_path and run only the units it is missing.
  bool resume = false;
  /// Polled before each unit (in-process) or between I/O waits
  /// (supervised); when it goes nonzero the campaign stops launching
  /// work, flushes the checkpoint and returns with interrupted == true
  /// (see campaign/signal.hpp).
  const volatile std::sig_atomic_t* interrupt = nullptr;
  /// Invoked as (units_done, total_units) each time a unit's payload
  /// lands — including units restored from a resumed checkpoint
  /// (reported once, up front). Calls are serialised and never come
  /// from worker processes; keep it cheap.
  std::function<void(std::uint64_t, std::uint64_t)> progress;
  TestHooks hooks;
};

struct CampaignResult {
  /// payloads[i] is unit i's result; meaningful iff completed[i].
  std::vector<std::string> payloads;
  std::vector<bool> completed;
  /// Cumulative shard supervision history (including resumed-from
  /// runs) in ascending first_unit order, ties in the order they were
  /// recorded; in-process, one Failed one-unit outcome per unit that
  /// threw.
  std::vector<ShardOutcome> shards;
  std::uint64_t units_done = 0;
  std::uint64_t units_from_checkpoint = 0;
  /// Order-sensitive digest over (unit, payload) of the completed
  /// units in ascending unit order; 0 unless the campaign is complete.
  std::uint64_t digest = 0;
  bool complete = false;
  bool interrupted = false;
  /// Processes the units ran in: 1 in-process, max(procs, 1) supervised.
  int procs_used = 1;
};

/// Execute `total_units` units of `fn` in the lane `opts` selects. Throws
/// on unusable checkpoints (missing/corrupt/fingerprint mismatch) and on
/// setup-level failures; per-shard (supervised) and per-unit
/// (in-process) failures degrade into Failed ShardOutcomes.
CampaignResult run_campaign(std::uint64_t total_units, const UnitFn& fn,
                            const CampaignOptions& opts);

}  // namespace mvqoe::campaign
