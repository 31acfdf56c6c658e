#include "runner/scenario_batch.hpp"

#include "stats/histogram.hpp"
#include "stats/rng.hpp"

namespace mvqoe::runner {

namespace {

/// Put one run on `seed`: the world stream and the first video stream
/// both follow it (the single-video seed scheme of §4.1's repeats).
scenario::ScenarioSpec seeded(scenario::ScenarioSpec spec, std::uint64_t seed) {
  spec.seed = seed;
  scenario::video_spec(spec).seed = seed;
  return spec;
}

}  // namespace

std::uint64_t sweep_cell_seed(std::uint64_t base, int height, int fps,
                              mem::PressureLevel state) noexcept {
  // One derive_seed stream per coordinate level. Offsets keep the streams
  // off the small integers used for run indices (derive_seed(base, i+1)).
  std::uint64_t seed = stats::derive_seed(base, 0x5157454550ULL /* "SWEEP" */);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(height));
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(fps));
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(state) + 1);
  return seed;
}

ScenarioBatch run_scenario_batch(const scenario::ScenarioSpec& spec, int runs, int jobs) {
  ScenarioBatch batch;
  if (runs <= 0) return batch;
  auto result = run_batch(static_cast<std::size_t>(runs), jobs, [&spec](std::size_t i) {
    return scenario::run_scenario(seeded(spec, stats::derive_seed(spec.seed, i + 1)));
  });
  batch.jobs_used = result.jobs_used;
  batch.failures = result.failures;
  for (const auto& slot : result.runs) {
    if (slot.ok) batch.aggregate.add(slot.value.sessions.at(0).result.outcome);
  }
  batch.runs = std::move(result.runs);
  return batch;
}

std::vector<SweepCellResult> run_scenario_sweep_grid(
    const scenario::ScenarioSpec& proto, const std::vector<mem::PressureLevel>& states,
    const std::vector<int>& fps, const std::vector<int>& heights, int runs, int jobs,
    std::uint64_t base_seed) {
  std::vector<SweepCellResult> cells;
  if (runs <= 0) return cells;
  for (const auto state : states) {
    for (const int f : fps) {
      for (const int h : heights) {
        SweepCellResult cell;
        cell.height = h;
        cell.fps = f;
        cell.state = state;
        cell.cell_seed = sweep_cell_seed(base_seed, h, f, state);
        cells.push_back(cell);
      }
    }
  }

  // Flatten to (cell, run) tasks so parallelism spans the whole grid, not
  // just the runs of one cell at a time.
  const std::size_t total = cells.size() * static_cast<std::size_t>(runs);
  auto result = run_batch(total, jobs, [&](std::size_t task) {
    const SweepCellResult& cell = cells[task / static_cast<std::size_t>(runs)];
    const std::size_t run_index = task % static_cast<std::size_t>(runs);
    scenario::ScenarioSpec spec = seeded(proto, stats::derive_seed(cell.cell_seed, run_index + 1));
    scenario::VideoWorkloadSpec& video = scenario::video_spec(spec);
    video.height = cell.height;
    video.fps = cell.fps;
    spec.state = cell.state;
    return scenario::run_scenario(spec).sessions.at(0).result.outcome;
  });

  // Deterministic reduction: tasks are laid out cell-major, so walking
  // the slots in index order rebuilds each cell's runs in run order.
  for (std::size_t task = 0; task < result.runs.size(); ++task) {
    SweepCellResult& cell = cells[task / static_cast<std::size_t>(runs)];
    const auto& slot = result.runs[task];
    if (slot.ok) {
      cell.aggregate.add(slot.value);
    } else {
      ++cell.failures;
    }
  }
  return cells;
}

void write_run_outcome(JsonWriter& w, const qoe::RunOutcome& outcome) {
  w.begin_object()
      .field("drop_rate", outcome.drop_rate)
      .field("crashed", outcome.crashed)
      .field("aborted", outcome.aborted)
      .field("mean_pss_mb", outcome.mean_pss_mb)
      .field("peak_pss_mb", outcome.peak_pss_mb)
      .field("startup_delay_s", outcome.startup_delay_s)
      .field("relaunches", outcome.relaunches)
      .field("rebuffer_events", outcome.rebuffer_events)
      .field("relaunch_downtime_s", outcome.relaunch_downtime_s)
      .end_object();
}

std::string sweep_json(std::string_view bench_name, const std::vector<SweepCellResult>& cells,
                       int runs, int jobs_used, std::uint64_t base_seed) {
  JsonWriter w;
  w.begin_object()
      .field("bench", bench_name)
      .field("base_seed", base_seed)
      .field("runs_per_cell", runs)
      .field("jobs", jobs_used);

  // Histogram rollup of all per-run drop rates across the grid.
  stats::Histogram drops(0.0, 1.0, 20);
  w.key("cells").begin_array();
  for (const SweepCellResult& cell : cells) {
    w.begin_object()
        .field("height", cell.height)
        .field("fps", cell.fps)
        .field("state", mem::to_string(cell.state))
        .field("cell_seed", cell.cell_seed)
        .field("failures", cell.failures)
        .field("crash_rate_percent", cell.aggregate.crash_rate_percent())
        .field("relaunch_rate_percent", cell.aggregate.relaunch_rate_percent());
    w.key("drop_rate");
    write_mean_ci(w, cell.aggregate.drop_rate());
    w.key("drop_rate_completed");
    write_mean_ci(w, cell.aggregate.drop_rate_completed());
    w.key("rebuffer_events");
    write_mean_ci(w, cell.aggregate.rebuffer_events());
    w.key("mean_pss_mb");
    write_mean_ci(w, cell.aggregate.mean_pss_mb());
    w.key("runs").begin_array();
    for (const qoe::RunOutcome& outcome : cell.aggregate.outcomes()) {
      write_run_outcome(w, outcome);
      drops.add(outcome.drop_rate);
    }
    w.end_array().end_object();
  }
  w.end_array();
  w.key("drop_rate_histogram");
  write_histogram(w, drops);
  w.end_object();
  return w.str();
}

std::string write_sweep_json(std::string_view bench_name,
                             const std::vector<SweepCellResult>& cells, int runs, int jobs_used,
                             std::uint64_t base_seed) {
  const std::string path = bench_json_path(bench_name);
  if (!write_file(path, sweep_json(bench_name, cells, runs, jobs_used, base_seed))) return "";
  return path;
}

std::uint64_t contention_cell_seed(std::uint64_t base, int sessions,
                                   mem::PressureLevel state) noexcept {
  std::uint64_t seed = stats::derive_seed(base, 0x434F4E54ULL /* "CONT" */);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(sessions));
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(state) + 1);
  return seed;
}

std::uint64_t contention_session_seed(std::uint64_t run_seed, std::size_t session) noexcept {
  std::uint64_t seed = stats::derive_seed(run_seed, 0x53455353ULL /* "SESS" */);
  return stats::derive_seed(seed, static_cast<std::uint64_t>(session) + 1);
}

namespace {

/// Build the n-session scenario for one contention run: n clones of the
/// proto's first video workload, labelled video<k>, each on its own
/// derived video stream.
scenario::ScenarioSpec contention_scenario(const scenario::ScenarioSpec& proto, int sessions,
                                           mem::PressureLevel state, std::uint64_t run_seed) {
  scenario::ScenarioSpec spec = proto;
  const scenario::VideoWorkloadSpec base_video = scenario::video_spec(proto);
  spec.state = state;
  spec.seed = run_seed;
  spec.workloads.clear();
  for (int k = 0; k < sessions; ++k) {
    scenario::VideoWorkloadSpec video = base_video;
    video.label = base_video.label + std::to_string(k);
    video.seed = contention_session_seed(run_seed, static_cast<std::size_t>(k));
    spec.workloads.emplace_back(std::move(video));
  }
  return spec;
}

}  // namespace

std::vector<ContentionCellResult> run_contention_grid(
    const scenario::ScenarioSpec& proto, const std::vector<int>& session_counts,
    const std::vector<mem::PressureLevel>& states, int runs, int jobs, std::uint64_t base_seed) {
  std::vector<ContentionCellResult> cells;
  if (runs <= 0) return cells;
  for (const int sessions : session_counts) {
    for (const auto state : states) {
      ContentionCellResult cell;
      cell.sessions = sessions;
      cell.state = state;
      cell.cell_seed = contention_cell_seed(base_seed, sessions, state);
      cells.push_back(cell);
    }
  }

  struct RunReport {
    std::vector<std::pair<std::string, qoe::RunOutcome>> sessions;
  };

  const std::size_t total = cells.size() * static_cast<std::size_t>(runs);
  auto result = run_batch(total, jobs, [&](std::size_t task) {
    const ContentionCellResult& cell = cells[task / static_cast<std::size_t>(runs)];
    const std::size_t run_index = task % static_cast<std::size_t>(runs);
    const std::uint64_t run_seed = stats::derive_seed(cell.cell_seed, run_index + 1);
    const scenario::ScenarioResult run_result =
        scenario::run_scenario(contention_scenario(proto, cell.sessions, cell.state, run_seed));
    RunReport report;
    for (const scenario::SessionReport& session : run_result.sessions) {
      report.sessions.emplace_back(session.label, session.result.outcome);
    }
    return report;
  });

  for (std::size_t task = 0; task < result.runs.size(); ++task) {
    ContentionCellResult& cell = cells[task / static_cast<std::size_t>(runs)];
    const auto& slot = result.runs[task];
    if (slot.ok) {
      for (const auto& [label, outcome] : slot.value.sessions) {
        cell.breakdown.add(label, outcome);
      }
    } else {
      ++cell.failures;
    }
  }
  return cells;
}

std::string contention_json(std::string_view bench_name,
                            const std::vector<ContentionCellResult>& cells, int runs,
                            int jobs_used, std::uint64_t base_seed) {
  JsonWriter w;
  w.begin_object()
      .field("bench", bench_name)
      .field("base_seed", base_seed)
      .field("runs_per_cell", runs)
      .field("jobs", jobs_used);
  w.key("cells").begin_array();
  for (const ContentionCellResult& cell : cells) {
    w.begin_object()
        .field("sessions", cell.sessions)
        .field("state", mem::to_string(cell.state))
        .field("cell_seed", cell.cell_seed)
        .field("failures", cell.failures);
    w.key("per_session").begin_array();
    for (const auto& [label, aggregate] : cell.breakdown.entries()) {
      w.begin_object()
          .field("label", label)
          .field("crash_rate_percent", aggregate.crash_rate_percent())
          .field("relaunch_rate_percent", aggregate.relaunch_rate_percent());
      w.key("drop_rate");
      write_mean_ci(w, aggregate.drop_rate());
      w.key("mean_pss_mb");
      write_mean_ci(w, aggregate.mean_pss_mb());
      w.key("runs").begin_array();
      for (const qoe::RunOutcome& outcome : aggregate.outcomes()) {
        write_run_outcome(w, outcome);
      }
      w.end_array().end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace mvqoe::runner
