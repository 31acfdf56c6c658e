// Figure 10: differential mean opinion scores from the 99-participant
// survey. Participants watched the 240p60 clip under Normal (~3% drops)
// and Moderate (~35% drops) and rated the relative experience 1-5.
// Paper: the vast majority noticed the difference; 60 of 99 rated 1-2.
//
// This bench measures the two clips' drop rates from actual simulated
// sessions, then runs the survey opinion model over them.
#include "bench_util.hpp"
#include "qoe/mos.hpp"
#include "stats/histogram.hpp"

int main() {
  using namespace mvqoe;
  bench::header("Figure 10 - differential MOS, 99 raters, 240p60 Normal vs Moderate",
                "Waheed et al., CoNEXT'22, Fig. 10 / Sec. 4.3");
  const int duration = bench::video_duration_s();

  auto measure = [&](mem::PressureLevel state) {
    // fig16 = Nokia 1 / Firefox.
    const auto spec = scenario::single_video("fig16", 240, 60, duration, state, 1);
    const auto batch = runner::run_scenario_batch(spec, bench::runs_per_cell(3), 1);
    return batch.aggregate.drop_rate().mean;
  };
  const double normal_drops = measure(mem::PressureLevel::Normal);
  const double moderate_drops = measure(mem::PressureLevel::Moderate);
  std::printf("clip A (Normal)   drop rate: %5.1f%%  (paper: ~3%%)\n", 100.0 * normal_drops);
  std::printf("clip B (Moderate) drop rate: %5.1f%%  (paper: ~35%%)\n", 100.0 * moderate_drops);

  // Rate the pair with the survey model — and also at the paper's exact
  // drop-rate anchors for a like-for-like histogram.
  const auto survey_measured =
      qoe::run_dmos_survey(qoe::MosModel{}, normal_drops, moderate_drops, 99, 42);
  const auto survey_anchor = qoe::run_dmos_survey(qoe::MosModel{}, 0.03, 0.35, 99, 42);

  bench::section("DMOS histogram at the paper's anchor drop rates (3% vs 35%)");
  stats::Histogram histogram(0.5, 5.5, 5);
  for (const int score : survey_anchor.scores) histogram.add(score);
  std::printf("%s", histogram.render(40).c_str());

  bench::section("paper-vs-measured");
  bench::compare("raters scoring 1 or 2 (anchor rates)", 60.0,
                 static_cast<double>(survey_anchor.count(1) + survey_anchor.count(2)), "of99");
  bench::compare("raters scoring 1 or 2 (measured rates)", 60.0,
                 static_cast<double>(survey_measured.count(1) + survey_measured.count(2)),
                 "of99");
  std::printf("  mean DMOS (anchor): %.2f   mean DMOS (measured clips): %.2f\n",
              survey_anchor.mean(), survey_measured.mean());
  return 0;
}
