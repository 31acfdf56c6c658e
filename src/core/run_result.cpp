#include "core/run_result.hpp"

namespace mvqoe::core {

const char* to_string(RunStatus status) noexcept {
  switch (status) {
    case RunStatus::Completed: return "Completed";
    case RunStatus::Crashed: return "Crashed";
    case RunStatus::Aborted: return "Aborted";
    case RunStatus::TimedOut: return "TimedOut";
  }
  return "?";
}

}  // namespace mvqoe::core
