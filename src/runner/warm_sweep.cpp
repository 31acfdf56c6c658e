#include "runner/warm_sweep.hpp"

#include <exception>
#include <string>
#include <utility>

#include "runner/ipc.hpp"
#include "scenario/driver.hpp"
#include "snapshot/bytes.hpp"
#include "stats/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define MVQOE_WARM_FORK 1
#else
#define MVQOE_WARM_FORK 0
#endif

namespace mvqoe::runner {

void encode_cell_outcome(snapshot::ByteWriter& w, const CellRunOutcome& result) {
  w.b(result.ok);
  if (!result.ok) {
    w.str(result.error);
    return;
  }
  const qoe::RunOutcome& o = result.outcome;
  w.f64(o.drop_rate);
  w.b(o.crashed);
  w.b(o.aborted);
  w.f64(o.mean_pss_mb);
  w.f64(o.peak_pss_mb);
  w.f64(o.startup_delay_s);
  w.i32(o.relaunches);
  w.i32(o.rebuffer_events);
  w.f64(o.relaunch_downtime_s);
}

CellRunOutcome decode_cell_outcome(snapshot::ByteReader& r) {
  CellRunOutcome result;
  result.ok = r.b();
  if (!result.ok) {
    result.error = r.str();
    return result;
  }
  qoe::RunOutcome& o = result.outcome;
  o.drop_rate = r.f64();
  o.crashed = r.b();
  o.aborted = r.b();
  o.mean_pss_mb = r.f64();
  o.peak_pss_mb = r.f64();
  o.startup_delay_s = r.f64();
  o.relaunches = r.i32();
  o.rebuffer_events = r.i32();
  o.relaunch_downtime_s = r.f64();
  return result;
}

namespace {

/// Video phase of one cell on an already-prepared scenario world. Runs in
/// the forked child (warm) — never returns an exception across the pipe.
CellRunOutcome run_cell_video(scenario::ScenarioDriver& driver, int height, int fps,
                              std::uint64_t video_seed) {
  CellRunOutcome result;
  try {
    driver.set_cell(height, fps, video_seed);
    driver.start();
    while (driver.advance_slice()) {
    }
    result.outcome = driver.finalize().sessions.at(0).result.outcome;
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  return result;
}

/// One cold cell's whole-world spec: `proto` retargeted to (state,
/// height, fps) on the group's world stream and the cell's video stream
/// — the same seeds the warm path forks the cell with.
scenario::ScenarioSpec cold_cell_spec(const scenario::ScenarioSpec& proto,
                                      mem::PressureLevel state, int height, int fps,
                                      std::uint64_t group_seed) {
  scenario::ScenarioSpec spec = proto;
  scenario::VideoWorkloadSpec& video = scenario::video_spec(spec);
  video.height = height;
  video.fps = fps;
  spec.state = state;
  spec.world_seed = group_seed;
  const std::uint64_t video_seed = sweep_video_seed(group_seed, height, fps);
  spec.seed = video_seed;
  video.seed = video_seed;
  return spec;
}

#if !MVQOE_WARM_FORK
/// One cold (cell, run): the whole world from boot — the portable
/// fallback run_warm_group degrades to.
CellRunOutcome run_cell_cold(const scenario::ScenarioSpec& proto, mem::PressureLevel state,
                             int height, int fps, std::uint64_t group_seed) {
  CellRunOutcome result;
  try {
    result.outcome = scenario::run_scenario(cold_cell_spec(proto, state, height, fps, group_seed))
                         .sessions.at(0)
                         .result.outcome;
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  return result;
}
#endif  // !MVQOE_WARM_FORK

#if MVQOE_WARM_FORK

/// Fork the video phases of one prepared world: each pending cell runs in
/// its own child (waves of `workers`), returning its outcome over a pipe.
/// The parent must be single-threaded when this is called — fork() from a
/// threaded process can deadlock the child's allocator.
struct PendingCell {
  std::size_t slot = 0;  // index into the group's outcome vector
  int height = 0;
  int fps = 0;
  std::uint64_t video_seed = 0;
};

void fork_group(scenario::ScenarioDriver& driver, const std::vector<PendingCell>& pending,
                int workers, std::vector<CellRunOutcome>& outcomes) {
  struct Child {
    pid_t pid = -1;
    int fd = -1;
    std::size_t slot = 0;
  };
  std::size_t next = 0;
  while (next < pending.size()) {
    std::vector<Child> wave;
    while (next < pending.size() && wave.size() < static_cast<std::size_t>(workers)) {
      const PendingCell& cell = pending[next++];
      int fds[2];
      if (::pipe(fds) != 0) {
        outcomes[cell.slot].error = "pipe() failed";
        continue;
      }
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        outcomes[cell.slot].error = "fork() failed";
        continue;
      }
      if (pid == 0) {
        ::close(fds[0]);
        snapshot::ByteWriter w;
        encode_cell_outcome(w, run_cell_video(driver, cell.height, cell.fps, cell.video_seed));
        write_all(fds[1], w.view());
        ::close(fds[1]);
        ::_exit(0);  // no destructors/atexit — the child is a throwaway world
      }
      ::close(fds[1]);
      wave.push_back(Child{pid, fds[0], cell.slot});
    }
    for (const Child& child : wave) {
      const std::string payload = read_all(child.fd);
      ::close(child.fd);
      int status = 0;
      ::waitpid(child.pid, &status, 0);
      CellRunOutcome& out = outcomes[child.slot];
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || payload.empty()) {
        out.error = "warm-start child died before reporting";
        continue;
      }
      try {
        snapshot::ByteReader r(payload);
        out = decode_cell_outcome(r);
      } catch (const std::exception& e) {
        out.error = e.what();
      }
    }
  }
}

#endif  // MVQOE_WARM_FORK

}  // namespace

std::uint64_t sweep_group_seed(std::uint64_t base, mem::PressureLevel state, int run) noexcept {
  std::uint64_t seed = stats::derive_seed(base, 0x57524C44ULL /* "WRLD" */);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(state) + 1);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(run) + 1);
  return seed;
}

std::uint64_t sweep_video_seed(std::uint64_t group_seed, int height, int fps) noexcept {
  std::uint64_t seed = stats::derive_seed(group_seed, 0x56494445ULL /* "VIDE" */);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(height));
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(fps));
  return seed;
}

std::vector<SweepCellResult> empty_sweep_grid(const std::vector<mem::PressureLevel>& states,
                                              const std::vector<int>& fps,
                                              const std::vector<int>& heights,
                                              std::uint64_t base_seed) {
  std::vector<SweepCellResult> cells;
  cells.reserve(states.size() * fps.size() * heights.size());
  for (const auto state : states) {
    for (const int f : fps) {
      for (const int h : heights) {
        SweepCellResult cell;
        cell.height = h;
        cell.fps = f;
        cell.state = state;
        cell.cell_seed = sweep_video_seed(sweep_group_seed(base_seed, state, 0), h, f);
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

std::vector<CellRunOutcome> run_warm_group(const scenario::ScenarioSpec& proto,
                                           mem::PressureLevel state, int run,
                                           const std::vector<int>& fps,
                                           const std::vector<int>& heights,
                                           std::uint64_t base_seed, int workers) {
  const std::uint64_t group_seed = sweep_group_seed(base_seed, state, run);
  std::vector<CellRunOutcome> outcomes(fps.size() * heights.size());

#if MVQOE_WARM_FORK
  scenario::ScenarioSpec world_spec = proto;
  world_spec.state = state;
  world_spec.world_seed = group_seed;
  world_spec.seed = group_seed;                          // placeholder;
  scenario::video_spec(world_spec).seed = group_seed;    // every cell retargets
  scenario::ScenarioDriver driver(world_spec);
  driver.prepare();  // the shared phase, simulated once per group

  std::vector<PendingCell> pending;
  std::size_t slot = 0;
  for (const int f : fps) {
    for (const int h : heights) {
      pending.push_back(PendingCell{slot++, h, f, sweep_video_seed(group_seed, h, f)});
    }
  }
  fork_group(driver, pending, workers > 0 ? workers : 1, outcomes);
#else
  (void)workers;
  std::size_t slot = 0;
  for (const int f : fps) {
    for (const int h : heights) {
      outcomes[slot++] = run_cell_cold(proto, state, h, f, group_seed);
    }
  }
#endif
  return outcomes;
}

std::vector<SweepCellResult> run_sweep_grid_shared(
    const scenario::ScenarioSpec& proto, const std::vector<mem::PressureLevel>& states,
    const std::vector<int>& fps, const std::vector<int>& heights, int runs, int jobs,
    std::uint64_t base_seed, SweepMode mode) {
  if (runs <= 0) return {};
  std::vector<SweepCellResult> cells = empty_sweep_grid(states, fps, heights, base_seed);
  const auto cells_per_state = fps.size() * heights.size();

  // (cell-index, run) -> outcome, filled by either mode, reduced once.
  std::vector<CellRunOutcome> outcomes(cells.size() * static_cast<std::size_t>(runs));
  const auto slot_of = [runs](std::size_t cell_index, int run) {
    return cell_index * static_cast<std::size_t>(runs) + static_cast<std::size_t>(run);
  };

  if (mode == SweepMode::Warm && fork_supported()) {
    const int workers = resolve_jobs(jobs);
    for (std::size_t s = 0; s < states.size(); ++s) {
      for (int run = 0; run < runs; ++run) {
        const std::vector<CellRunOutcome> group =
            run_warm_group(proto, states[s], run, fps, heights, base_seed, workers);
        for (std::size_t c = 0; c < cells_per_state; ++c) {
          outcomes[slot_of(s * cells_per_state + c, run)] = group[c];
        }
      }
    }
  } else {
    // Cold baseline: every (cell, run) from boot, on the thread pool. The
    // seeds are identical to the warm path's, so so are the outcomes.
    const std::size_t total = cells.size() * static_cast<std::size_t>(runs);
    auto result = run_batch(total, jobs, [&](std::size_t task) {
      const std::size_t cell_index = task / static_cast<std::size_t>(runs);
      const int run = static_cast<int>(task % static_cast<std::size_t>(runs));
      const SweepCellResult& cell = cells[cell_index];
      return scenario::run_scenario(
                 cold_cell_spec(proto, cell.state, cell.height, cell.fps,
                                sweep_group_seed(base_seed, cell.state, run)))
          .sessions.at(0)
          .result.outcome;
    });
    for (std::size_t task = 0; task < result.runs.size(); ++task) {
      CellRunOutcome& out = outcomes[task];  // same cell-major layout
      if (result.runs[task].ok) {
        out.ok = true;
        out.outcome = result.runs[task].value;
      } else {
        out.error = result.runs[task].error;
      }
    }
  }

  for (std::size_t cell_index = 0; cell_index < cells.size(); ++cell_index) {
    for (int run = 0; run < runs; ++run) {
      const CellRunOutcome& out = outcomes[slot_of(cell_index, run)];
      if (out.ok) {
        cells[cell_index].aggregate.add(out.outcome);
      } else {
        ++cells[cell_index].failures;
      }
    }
  }
  return cells;
}

}  // namespace mvqoe::runner
