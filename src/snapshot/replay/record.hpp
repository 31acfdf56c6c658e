// Golden-trace recording, replay verification and divergence bisection.
//
// record_run() executes a scenario once, sampling the full-state digest
// at every checkpoint interval, and packs scenario + digest trail +
// final per-subsystem state into a blob. verify_replay() re-runs the
// scenario from the blob and compares the trail digest-by-digest.
// bisect_divergence() localizes a mismatch: binary search over the trail
// (each probe is a fresh deterministic replay) finds the first bad
// interval, then two lockstep drivers — one clean, one perturbed — step
// event-by-event through it to name the first diverging event and the
// first subsystem whose digest differs.
#pragma once

#include <csignal>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/driver.hpp"
#include "snapshot/blob.hpp"
#include "snapshot/replay/driver.hpp"
#include "snapshot/replay/scenario.hpp"

namespace mvqoe::snapshot::replay {

/// Blob section tags owned by this layer (component state sections —
/// ENGN, SCHD, ..., VIDE/VID1/... — are written via the Testbed's
/// component registry, see core/registry.hpp).
inline constexpr std::uint32_t kScenTag = tag("SCEN");
inline constexpr std::uint32_t kMetaTag = tag("META");
inline constexpr std::uint32_t kTrailTag = tag("TRAL");
inline constexpr std::uint32_t kSubsystemDigestsTag = tag("SDIG");

/// One digest sample: full-state digest at `offset` from video start.
struct TrailEntry {
  sim::Time offset = 0;
  std::uint64_t digest = 0;
};

struct RecordOptions {
  /// Digest sampling interval (whole seconds of simulated time).
  sim::Time interval = sim::sec(10);
  /// Test hook: corrupt one RNG bit at this offset during the recording
  /// itself (used to manufacture known-bad blobs).
  std::optional<sim::Time> perturb_at;
  /// Polled between checkpoint intervals; when it goes nonzero the
  /// recording stops at the next boundary and the partial (but fully
  /// well-formed) blob is returned — the SIGINT/SIGTERM flush path of
  /// tools/mvqoe_replay (campaign/signal.hpp).
  const volatile std::sig_atomic_t* stop = nullptr;
};

struct ReplayMeta {
  sim::Time interval = 0;
  sim::Time video_start = 0;   // absolute sim time playback began
  sim::Time end_offset = 0;    // trail end, relative to video start
  std::uint8_t status = 0;     // core::RunStatus of the recorded run
  std::uint64_t final_digest = 0;
};

/// Run the scenario to completion, return the blob.
Snapshot record_run(const ScenarioSpec& scen, const RecordOptions& options = {});

ReplayMeta load_meta(const Snapshot& blob);
std::vector<TrailEntry> load_trail(const Snapshot& blob);
std::vector<std::pair<std::string, std::uint64_t>> load_subsystem_digests(const Snapshot& blob);

struct VerifyReport {
  bool ok = false;
  std::size_t checked = 0;  // trail entries compared (including mismatch)
  /// Valid when !ok:
  std::size_t mismatch_index = 0;
  sim::Time mismatch_offset = 0;
  std::uint64_t expected = 0;
  std::uint64_t actual = 0;
};

/// Re-run the blob's scenario and compare every trail digest.
/// `perturb_at` injects the one-bit RNG corruption into the re-run (test
/// and demo hook — a clean verify leaves it unset).
VerifyReport verify_replay(const Snapshot& blob, std::optional<sim::Time> perturb_at = {});

struct DivergenceReport {
  bool diverged = false;
  /// First trail entry whose digest mismatched; the divergence lies in
  /// (interval_start, interval_end] relative to video start.
  std::size_t interval_index = 0;
  sim::Time interval_start = 0;
  sim::Time interval_end = 0;
  int probes = 0;  // fresh replays the binary search spent
  /// First event dispatched from diverged state (lockstep pinpoint).
  sim::Time event_time = 0;     // absolute sim time
  std::uint64_t event_seq = 0;  // engine sequence number of that event
  std::string subsystem;        // first subsystem whose digest differs
};

/// Localize where a perturbed re-run leaves the recorded trail.
DivergenceReport bisect_divergence(const Snapshot& blob, sim::Time perturb_at);

std::string format_report(const VerifyReport& report);
std::string format_report(const DivergenceReport& report);

}  // namespace mvqoe::snapshot::replay
