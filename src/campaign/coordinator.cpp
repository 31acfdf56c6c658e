#include "campaign/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "runner/batch.hpp"
#include "runner/ipc.hpp"
#include "snapshot/digest.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <poll.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#define MVQOE_CAMPAIGN_FORK 1
#else
#define MVQOE_CAMPAIGN_FORK 0
#endif

namespace mvqoe::campaign {
namespace {

using Clock = std::chrono::steady_clock;

// Worker -> coordinator wire protocol, one byte stream per shard attempt:
//   'R' u64(unit) u64(len) payload   — one completed unit (heartbeat)
//   'D'                              — shard finished cleanly
constexpr char kRecordFrame = 'R';
constexpr char kDoneFrame = 'D';
constexpr std::size_t kRecordHeader = 1 + 8 + 8;

std::uint64_t read_u64le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void append_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// One contiguous slice of the campaign's missing units, tracked across
/// retry attempts. `pending` shrinks as record frames arrive, so a
/// retried shard only re-runs what the crashed attempt never delivered.
struct Shard {
  std::uint64_t first_unit = 0;
  std::uint64_t unit_count = 0;
  std::vector<std::uint64_t> pending;
  int attempts = 0;
  Clock::time_point eligible_at{};
  std::string last_error;
  bool running = false;
  bool done = false;
  bool failed = false;
};

bool interrupt_raised(const CampaignOptions& opts) {
  return opts.interrupt != nullptr && *opts.interrupt != 0;
}

/// The in-process lane: units on runner::run_batch threads, progress
/// serialised under a mutex, no new unit started once the interrupt
/// flag is up. A unit that throws becomes a one-unit Failed outcome.
void run_in_process(std::uint64_t total_units, const UnitFn& fn, const CampaignOptions& opts,
                    CampaignResult& result) {
  std::mutex progress_mutex;
  std::uint64_t units_done = 0;
  std::vector<char> skipped(total_units, 0);
  auto batch = runner::run_batch(
      static_cast<std::size_t>(total_units), opts.jobs, [&](std::size_t unit) {
        if (interrupt_raised(opts)) {
          skipped[unit] = 1;
          throw std::runtime_error("campaign: interrupted");
        }
        std::string payload = fn(unit);
        if (opts.progress) {
          const std::lock_guard<std::mutex> lock(progress_mutex);
          opts.progress(++units_done, total_units);
        }
        return payload;
      });
  for (std::size_t unit = 0; unit < batch.runs.size(); ++unit) {
    auto& slot = batch.runs[unit];
    result.payloads[unit] = std::move(slot.value);
    result.completed[unit] = slot.ok;
    if (!slot.ok && skipped[unit] == 0) {
      ShardOutcome outcome;
      outcome.first_unit = unit;
      outcome.unit_count = 1;
      outcome.attempts = 1;
      outcome.status = ShardStatus::Failed;
      outcome.error = "unit threw: " + slot.error;
      result.shards.push_back(std::move(outcome));
    }
  }
  result.interrupted = interrupt_raised(opts);
}

/// The supervised lane: sharded worker processes, checkpoints, resume.
void run_supervised(std::uint64_t total_units, const UnitFn& fn, const CampaignOptions& opts,
                    CampaignResult& result) {
  const std::uint64_t fingerprint = snapshot::digest_bytes(opts.config);
  if (opts.resume) {
    if (opts.state_path.empty()) {
      throw std::invalid_argument("campaign: resume requires a checkpoint path");
    }
    CheckpointState state = read_checkpoint_file(opts.state_path);
    if (state.fingerprint != fingerprint) {
      throw std::runtime_error("campaign: " + opts.state_path +
                               " was recorded under a different campaign configuration "
                               "(fingerprint mismatch) — refusing to resume");
    }
    if (state.total_units != total_units) {
      throw std::runtime_error("campaign: " + opts.state_path + " tracks " +
                               std::to_string(state.total_units) + " units, campaign has " +
                               std::to_string(total_units));
    }
    for (auto& [index, payload] : state.units) {
      result.payloads[index] = std::move(payload);
      result.completed[index] = true;
      ++result.units_from_checkpoint;
    }
    result.shards = std::move(state.shards);
    // Checkpoints written before the history was kept in unit order.
    std::stable_sort(result.shards.begin(), result.shards.end(),
                     [](const ShardOutcome& a, const ShardOutcome& b) {
                       return a.first_unit < b.first_unit;
                     });
  }

  std::uint64_t units_landed = result.units_from_checkpoint;
  const auto report_progress = [&] {
    if (opts.progress) opts.progress(units_landed, total_units);
  };
  if (opts.resume && units_landed > 0) report_progress();

  // Partition the missing units into contiguous shards.
  std::vector<Shard> shards;
  {
    std::vector<std::uint64_t> missing;
    for (std::uint64_t i = 0; i < total_units; ++i) {
      if (!result.completed[i]) missing.push_back(i);
    }
    const auto now = Clock::now();
    for (std::size_t off = 0; off < missing.size(); off += opts.shard_size) {
      Shard shard;
      const std::size_t end = std::min(off + opts.shard_size, missing.size());
      shard.pending.assign(missing.begin() + static_cast<std::ptrdiff_t>(off),
                           missing.begin() + static_cast<std::ptrdiff_t>(end));
      shard.first_unit = shard.pending.front();
      shard.unit_count = shard.pending.size();
      shard.eligible_at = now;
      shards.push_back(std::move(shard));
    }
  }

  int progress_flushes = 0;
  const auto flush_checkpoint = [&](bool progress) {
    if (opts.state_path.empty()) return;
    CheckpointState state;
    state.fingerprint = fingerprint;
    state.config = opts.config;
    state.total_units = total_units;
    for (std::uint64_t i = 0; i < total_units; ++i) {
      if (result.completed[i]) state.units.emplace_back(i, result.payloads[i]);
    }
    state.shards = result.shards;
    if (!write_checkpoint_file(opts.state_path, state)) {
      throw std::runtime_error("campaign: cannot write checkpoint " + opts.state_path);
    }
#if MVQOE_CAMPAIGN_FORK
    if (progress && opts.hooks.kill_after_checkpoints > 0 &&
        ++progress_flushes == opts.hooks.kill_after_checkpoints) {
      // Test hook: die exactly like a machine crash — no unwinding, no
      // atexit, workers orphaned. The checkpoint just written is what a
      // resume finds.
      ::raise(SIGKILL);
    }
#else
    (void)progress;
    (void)progress_flushes;
#endif
  };

  // The history is kept in unit order (invocation order among equal
  // first units), not completion order, so the checkpoint bytes do not
  // depend on which worker finished first.
  const auto record_outcome = [&](Shard& shard, ShardStatus status) {
    ShardOutcome outcome;
    outcome.first_unit = shard.first_unit;
    outcome.unit_count = shard.unit_count;
    outcome.attempts = shard.attempts;
    outcome.status = status;
    if (status == ShardStatus::Failed) outcome.error = shard.last_error;
    const auto at = std::upper_bound(
        result.shards.begin(), result.shards.end(), outcome.first_unit,
        [](std::uint64_t unit, const ShardOutcome& o) { return unit < o.first_unit; });
    result.shards.insert(at, std::move(outcome));
  };

  // Fresh campaigns establish the checkpoint up front so an early kill
  // still leaves a resumable (empty) state file.
  if (!opts.resume) flush_checkpoint(false);

  const auto interrupted = [&] { return interrupt_raised(opts); };

#if MVQOE_CAMPAIGN_FORK
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    std::size_t shard = 0;
    std::string buffer;
    Clock::time_point last_activity{};
    bool saw_done = false;
    bool protocol_error = false;
  };
  std::vector<Worker> workers;

  // Deliver one record frame's payload and retire the unit from its shard.
  const auto deliver = [&](Shard& shard, std::uint64_t unit, std::string payload) {
    if (unit >= total_units) return;
    if (!result.completed[unit]) {
      result.payloads[unit] = std::move(payload);
      result.completed[unit] = true;
      ++units_landed;
      report_progress();
    }
    const auto it = std::find(shard.pending.begin(), shard.pending.end(), unit);
    if (it != shard.pending.end()) shard.pending.erase(it);
  };

  const auto parse_frames = [&](Worker& w) {
    Shard& shard = shards[w.shard];
    for (;;) {
      if (w.buffer.empty()) return;
      if (w.buffer[0] == kDoneFrame) {
        w.saw_done = true;
        w.buffer.erase(0, 1);
        continue;
      }
      if (w.buffer[0] != kRecordFrame) {
        w.protocol_error = true;
        return;
      }
      if (w.buffer.size() < kRecordHeader) return;
      const std::uint64_t unit = read_u64le(w.buffer.data() + 1);
      const std::uint64_t len = read_u64le(w.buffer.data() + 9);
      if (w.buffer.size() < kRecordHeader + len) return;
      deliver(shard, unit, w.buffer.substr(kRecordHeader, static_cast<std::size_t>(len)));
      w.buffer.erase(0, kRecordHeader + static_cast<std::size_t>(len));
    }
  };

  // The worker body: run the shard's pending units in order, stream each
  // payload back, then announce completion. Runs in the forked child —
  // it must reach the pipe or _exit, never unwind into the coordinator.
  const auto run_worker = [&](const std::vector<std::uint64_t>& units, int attempt,
                              int fd) -> void {
    for (const std::uint64_t unit : units) {
      if (opts.hooks.abort_unit >= 0 &&
          static_cast<std::int64_t>(unit) == opts.hooks.abort_unit &&
          attempt <= opts.hooks.abort_attempts) {
        ::raise(opts.hooks.abort_signal);
        ::_exit(86);  // reached only if the signal was ignorable
      }
      if (opts.hooks.hang_unit >= 0 && static_cast<std::int64_t>(unit) == opts.hooks.hang_unit &&
          attempt <= opts.hooks.hang_attempts) {
        for (;;) {
          struct timespec ts = {0, 50 * 1000 * 1000};
          ::nanosleep(&ts, nullptr);
        }
      }
      std::string payload;
      try {
        payload = fn(unit);
      } catch (...) {
        ::_exit(3);  // unit threw; the coordinator retries the shard
      }
      std::string frame;
      frame.reserve(kRecordHeader + payload.size());
      frame.push_back(kRecordFrame);
      append_u64le(frame, unit);
      append_u64le(frame, payload.size());
      frame += payload;
      if (!runner::write_all(fd, frame)) ::_exit(4);  // coordinator gone
    }
    const char done = kDoneFrame;
    runner::write_all(fd, std::string_view(&done, 1));
    ::close(fd);
    ::_exit(0);
  };

  const auto attempt_failed = [&](Shard& shard, std::string error) {
    shard.running = false;
    shard.last_error = std::move(error);
    if (shard.pending.empty()) {
      // Every unit arrived before the attempt died (e.g. killed between
      // the last record and DONE) — the shard's work is complete.
      shard.done = true;
      record_outcome(shard, ShardStatus::Completed);
      flush_checkpoint(true);
      return;
    }
    if (shard.attempts >= opts.max_attempts) {
      shard.failed = true;
      record_outcome(shard, ShardStatus::Failed);
      flush_checkpoint(true);
      return;
    }
    const int exponent = std::min(shard.attempts - 1, 16);
    shard.eligible_at =
        Clock::now() + std::chrono::milliseconds(static_cast<long long>(opts.backoff_ms)
                                                 << exponent);
  };

  // Reap one worker whose pipe hit EOF (exit or kill), deciding shard fate.
  const auto worker_finished = [&](Worker& w) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    ::close(w.fd);
    Shard& shard = shards[w.shard];
    shard.running = false;
    if (shard.pending.empty()) {
      shard.done = true;
      record_outcome(shard, ShardStatus::Completed);
      flush_checkpoint(true);
      return;
    }
    std::string error;
    if (w.protocol_error) {
      error = "worker emitted a malformed frame";
    } else if (WIFSIGNALED(status)) {
      error = "worker killed by signal " + std::to_string(WTERMSIG(status));
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      error = "worker exited with code " + std::to_string(WEXITSTATUS(status)) +
              " before completing its shard";
    } else {
      error = "worker closed its pipe with " + std::to_string(shard.pending.size()) +
              " units still pending";
    }
    attempt_failed(shard, std::move(error));
  };

  const auto kill_all_workers = [&] {
    for (Worker& w : workers) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      ::close(w.fd);
    }
    workers.clear();
  };

  const auto shards_open = [&] {
    return std::any_of(shards.begin(), shards.end(),
                       [](const Shard& s) { return !s.done && !s.failed; });
  };

  try {
    while (shards_open() || !workers.empty()) {
      if (interrupted()) {
        kill_all_workers();
        result.interrupted = true;
        flush_checkpoint(false);
        break;
      }

      // Launch eligible shards into free worker slots.
      const auto now = Clock::now();
      for (std::size_t s = 0; s < shards.size(); ++s) {
        if (workers.size() >= static_cast<std::size_t>(result.procs_used)) break;
        Shard& shard = shards[s];
        if (shard.done || shard.failed || shard.running || shard.eligible_at > now) continue;
        int fds[2];
        if (::pipe(fds) != 0) {
          ++shard.attempts;
          attempt_failed(shard, "pipe() failed");
          continue;
        }
        ++shard.attempts;
        const pid_t pid = ::fork();
        if (pid < 0) {
          ::close(fds[0]);
          ::close(fds[1]);
          attempt_failed(shard, "fork() failed");
          continue;
        }
        if (pid == 0) {
          ::close(fds[0]);
          for (const Worker& other : workers) ::close(other.fd);
          run_worker(shard.pending, shard.attempts, fds[1]);
          ::_exit(0);  // unreachable
        }
        ::close(fds[1]);
        Worker w;
        w.pid = pid;
        w.fd = fds[0];
        w.shard = s;
        w.last_activity = Clock::now();
        workers.push_back(std::move(w));
        shard.running = true;
      }

      if (workers.empty()) {
        if (!shards_open()) break;
        // Every open shard is backing off — sleep a tick.
        struct timespec ts = {0, 10 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
        continue;
      }

      std::vector<struct pollfd> fds(workers.size());
      for (std::size_t i = 0; i < workers.size(); ++i) {
        fds[i] = {workers[i].fd, POLLIN, 0};
      }
      const int rc = ::poll(fds.data(), fds.size(), 50);
      if (rc < 0 && errno != EINTR) {
        kill_all_workers();
        throw std::runtime_error("campaign: poll() failed");
      }

      const auto after = Clock::now();
      std::vector<std::size_t> finished;
      for (std::size_t i = 0; i < workers.size(); ++i) {
        Worker& w = workers[i];
        bool eof = false;
        if (rc > 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          char buf[65536];
          const ssize_t n = ::read(w.fd, buf, sizeof(buf));
          if (n > 0) {
            w.buffer.append(buf, static_cast<std::size_t>(n));
            w.last_activity = after;
            parse_frames(w);
            if (w.protocol_error) {
              ::kill(w.pid, SIGKILL);
              eof = true;  // reap below; remaining pipe data is garbage
            }
          } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
            eof = true;
          }
        }
        if (!eof &&
            after - w.last_activity > std::chrono::milliseconds(opts.heartbeat_timeout_ms)) {
          // Hung worker: SIGKILL it, then salvage whatever frames it
          // managed to send before stalling.
          ::kill(w.pid, SIGKILL);
          w.buffer += runner::read_all(w.fd);
          parse_frames(w);
          int status = 0;
          ::waitpid(w.pid, &status, 0);
          ::close(w.fd);
          attempt_failed(shards[w.shard],
                         "heartbeat timeout: worker silent for over " +
                             std::to_string(opts.heartbeat_timeout_ms) + "ms (SIGKILLed)");
          finished.push_back(i);
          continue;
        }
        if (eof) {
          w.buffer += runner::read_all(w.fd);  // drain anything past the last poll
          parse_frames(w);
          worker_finished(w);
          finished.push_back(i);
        }
      }
      for (auto it = finished.rbegin(); it != finished.rend(); ++it) {
        workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(*it));
      }
    }
  } catch (...) {
    kill_all_workers();
    throw;
  }
#else
  // No fork(): degrade to supervised in-process execution. Crash
  // isolation is gone (a crashing unit takes the campaign with it) but
  // checkpoints, retry-on-exception, shard outcomes and resume behave
  // identically. The crash/hang test hooks need processes and are
  // ignored here.
  for (Shard& shard : shards) {
    if (result.interrupted) break;
    bool give_up = false;
    while (!shard.pending.empty() && !give_up) {
      ++shard.attempts;
      try {
        while (!shard.pending.empty()) {
          if (interrupted()) {
            result.interrupted = true;
            break;
          }
          const std::uint64_t unit = shard.pending.front();
          result.payloads[unit] = fn(unit);
          result.completed[unit] = true;
          shard.pending.erase(shard.pending.begin());
          ++units_landed;
          report_progress();
        }
      } catch (const std::exception& e) {
        shard.last_error = std::string("unit threw: ") + e.what();
        if (shard.attempts >= opts.max_attempts) give_up = true;
      } catch (...) {
        shard.last_error = "unit threw: unknown exception";
        if (shard.attempts >= opts.max_attempts) give_up = true;
      }
      if (result.interrupted) break;
    }
    if (result.interrupted) {
      flush_checkpoint(false);
      break;
    }
    if (shard.pending.empty()) {
      shard.done = true;
      record_outcome(shard, ShardStatus::Completed);
    } else {
      shard.failed = true;
      record_outcome(shard, ShardStatus::Failed);
    }
    flush_checkpoint(true);
  }
#endif
}

}  // namespace

CampaignResult run_campaign(std::uint64_t total_units, const UnitFn& fn,
                            const CampaignOptions& opts) {
  if (opts.shard_size == 0) throw std::invalid_argument("campaign: shard_size must be >= 1");
  if (opts.max_attempts < 1) throw std::invalid_argument("campaign: max_attempts must be >= 1");

  CampaignResult result;
  result.payloads.resize(total_units);
  result.completed.assign(total_units, false);
  if (opts.procs == 0 && opts.state_path.empty() && !opts.resume) {
    run_in_process(total_units, fn, opts, result);
  } else {
    result.procs_used = std::max(opts.procs, 1);
    run_supervised(total_units, fn, opts, result);
  }

  result.units_done = static_cast<std::uint64_t>(
      std::count(result.completed.begin(), result.completed.end(), true));
  result.complete = result.units_done == total_units;
  if (result.complete) {
    snapshot::StateHash digest;
    for (std::uint64_t unit = 0; unit < total_units; ++unit) {
      digest.mix(unit);
      digest.mix_bytes(result.payloads[unit]);
    }
    result.digest = digest.value();
  }
  return result;
}

}  // namespace mvqoe::campaign
