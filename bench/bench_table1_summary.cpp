// Table 1: the paper's key-insight summary. This bench regenerates each
// row's quantitative claim from the corresponding subsystem: the field
// study (§3 rows), the Nokia 1 / Nexus 5 experiments (§4 rows), the MOS
// survey, and the §5 trace analysis. The repeated-run video cells fan
// out over the batch runner (--jobs / MVQOE_JOBS); every paper-vs-
// measured row also lands in BENCH_table1_summary.json.
#include "bench_util.hpp"
#include "qoe/mos.hpp"
#include "study_util.hpp"
#include "trace/analysis.hpp"

namespace {

struct Row {
  std::string what;
  double paper = 0.0;
  double measured = 0.0;
  std::string unit;
};

std::vector<Row> g_rows;

void row(const std::string& what, double paper, double measured, const std::string& unit) {
  mvqoe::bench::compare(what, paper, measured, unit);
  g_rows.push_back(Row{what, paper, measured, unit});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvqoe;
  bench::header("Table 1 - key insights summary", "Waheed et al., CoNEXT'22, Table 1");
  const int duration = bench::video_duration_s();
  const int runs = bench::runs_per_cell(3);
  const int jobs = bench::jobs_from_args(argc, argv);

  bench::section("rows 1-2: user study (memory pressure in the wild)");
  {
    const auto data = bench::run_scaled_study(80, 42, jobs);
    const auto summary = study::summarize(data.results);
    row("devices experiencing memory pressure (>=1 signal/h)", 63.0,
        summary.percent_with_any_signal_per_hour, "%");
    row("devices with > 10 Critical signals/hour", 19.0,
        summary.percent_with_10_critical_per_hour, "%");
    row("devices > 50% of time in high pressure", 10.0, summary.percent_time50_high_pressure,
        "%");
    row("devices >= 2% of time in high pressure", 35.0, summary.percent_time2_high_pressure,
        "%");
  }

  bench::section("row 3: entry-level (Nokia 1) high-res drops and crashes under pressure");
  {
    const auto proto = scenario::single_video("table1", 1080, 30, duration,
                                              mem::PressureLevel::Normal, 1);
    const auto cells = runner::run_scenario_sweep_grid(proto, {mem::PressureLevel::Moderate},
                                                       {30, 60}, {720, 1080}, runs, jobs, 1);
    stats::Accumulator drops;
    double crash = 0.0;
    for (const auto& cell : cells) {
      drops.add(100.0 * cell.aggregate.drop_rate().mean);
      crash += cell.aggregate.crash_rate_percent();
    }
    row("Nokia 1 mean drops, 720/1080p under pressure", 75.0, drops.mean(), "%");
    std::printf("  Nokia 1 'frequent crashes': mean crash rate %.0f%% across high-res cells\n",
                crash / static_cast<double>(cells.size()));
  }

  bench::section("row 4: Nexus 5 drops up to ~25%");
  {
    const auto proto =
        scenario::single_video("fig11", 1080, 30, duration, mem::PressureLevel::Normal, 1);
    const auto cells = runner::run_scenario_sweep_grid(
        proto, {mem::PressureLevel::Moderate, mem::PressureLevel::Critical}, {60}, {1080}, runs,
        jobs, 1);
    double worst = 0.0;
    for (const auto& cell : cells) {
      worst = std::max(worst, 100.0 * cell.aggregate.drop_rate_completed().mean);
    }
    row("Nexus 5 worst-case drops (completed runs)", 25.0, worst, "%");
  }

  bench::section("row 5: user survey — experience degrades significantly under pressure");
  {
    const auto survey = qoe::run_dmos_survey(qoe::MosModel{}, 0.03, 0.35, 99, 42);
    row("raters scoring 1-2 of 99", 60.0,
        static_cast<double>(survey.count(1) + survey.count(2)), "#");
  }

  bench::section("row 6: waiting time of video threads increases under pressure");
  {
    // Two single runs that each dissect the tracer afterwards: fan the
    // pair out as a two-task batch.
    const auto batch =
        runner::run_batch(std::size_t{2}, jobs, [&](std::size_t i) -> trace::StateTimeTable {
          const auto state =
              i == 0 ? mem::PressureLevel::Normal : mem::PressureLevel::Moderate;
          scenario::ScenarioDriver driver(
              scenario::single_video("table1", 480, 60, duration, state, 3));
          driver.run();
          const video::VideoSession& session = *driver.video().session();
          std::vector<trace::ThreadId> tids = session.client_thread_ids();
          tids.push_back(session.surfaceflinger_tid());
          return trace::state_times(driver.testbed().tracer, tids, driver.playback_start());
        });
    const auto& normal = batch.runs[0].value;
    const auto& moderate = batch.runs[1].value;
    const double increase =
        normal.runnable_preempted > 0
            ? 100.0 * (moderate.runnable_preempted - normal.runnable_preempted) /
                  normal.runnable_preempted
            : 0.0;
    row("Runnable (Preempted) increase Normal->Moderate", 97.8, increase, "%");
  }

  bench::section("row 7: adaptation opportunity (frame rate under pressure)");
  {
    auto run_fps = [&](int fps) {
      scenario::ScenarioSpec spec =
          scenario::single_video("table1", 480, fps, duration, mem::PressureLevel::Normal, 1);
      spec.organic_background_apps = 8;
      return runner::run_scenario_batch(spec, runs, jobs).aggregate.drop_rate().mean * 100.0;
    };
    const double at60 = run_fps(60);
    const double at24 = run_fps(24);
    std::printf("  480p under organic pressure: %.1f%% drops at 60 FPS vs %.1f%% at 24 FPS\n",
                at60, at24);
    std::printf("  frame-rate adaptation recovers playback: %s\n",
                at24 < at60 * 0.5 ? "YES" : "NO");
  }

  runner::JsonWriter json;
  json.begin_object()
      .field("bench", "table1_summary")
      .field("runs_per_cell", runs)
      .field("jobs", runner::resolve_jobs(jobs));
  json.key("rows").begin_array();
  for (const Row& r : g_rows) {
    json.begin_object()
        .field("what", r.what)
        .field("paper", r.paper)
        .field("measured", r.measured)
        .field("unit", r.unit)
        .end_object();
  }
  json.end_array().end_object();
  const std::string path = runner::bench_json_path("table1_summary");
  if (runner::write_file(path, json.str())) {
    std::printf("\nmachine-readable: %s\n", path.c_str());
  }
  return 0;
}
