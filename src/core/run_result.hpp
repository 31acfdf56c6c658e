// Result of one video session: the QoE outcome plus a structured status.
// Kept as a standalone header (below the scenario layer) so session
// workloads and the scenario driver can report it without pulling in
// each other.
#pragma once

#include <cstdint>
#include <string>

#include "mem/types.hpp"
#include "qoe/metrics.hpp"
#include "video/session.hpp"

namespace mvqoe::core {

/// How a run ended — structured partial results instead of a bare crash
/// bit, so fault scenarios can assert on the exact failure mode.
enum class RunStatus : std::uint8_t {
  Completed,  // played to the end (possibly after absorbed kills)
  Crashed,    // client killed terminally (no relaunch budget left)
  Aborted,    // unrecoverable download failure (retry budget exhausted)
  TimedOut,   // did not finish within the horizon (unplayable/livelock)
};

const char* to_string(RunStatus status) noexcept;

struct VideoRunResult {
  qoe::RunOutcome outcome;
  video::SessionMetrics metrics;
  RunStatus status = RunStatus::Completed;
  std::string failure_reason;
  /// Pressure level observed when playback started.
  mem::PressureLevel start_level = mem::PressureLevel::Normal;
};

}  // namespace mvqoe::core
