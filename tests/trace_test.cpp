#include <gtest/gtest.h>

#include <map>
#include <unordered_set>
#include <vector>

#include "trace/analysis.hpp"
#include "trace/tracer.hpp"

namespace mvqoe::trace {
namespace {

using sim::msec;
using sim::sec;

ThreadMeta meta(ThreadId tid, const std::string& name, const std::string& proc = "app") {
  return ThreadMeta{tid, 100, name, proc};
}

TEST(Tracer, StateIntervalsAreClosedOnTransition) {
  Tracer tracer;
  tracer.register_thread(meta(1, "worker"));
  tracer.state_change(1, 0, ThreadState::Runnable);
  tracer.state_change(1, msec(10), ThreadState::Running);
  tracer.state_change(1, msec(30), ThreadState::Sleeping);
  tracer.finalize(msec(50));

  ASSERT_EQ(tracer.intervals().size(), 3u);
  EXPECT_EQ(tracer.intervals()[0].state, ThreadState::Runnable);
  EXPECT_EQ(tracer.intervals()[0].end - tracer.intervals()[0].begin, msec(10));
  EXPECT_EQ(tracer.intervals()[1].state, ThreadState::Running);
  EXPECT_EQ(tracer.intervals()[1].end - tracer.intervals()[1].begin, msec(20));
}

TEST(Tracer, ZeroLengthIntervalsDropped) {
  Tracer tracer;
  tracer.register_thread(meta(1, "t"));
  tracer.state_change(1, msec(5), ThreadState::Sleeping);
  tracer.state_change(1, msec(5), ThreadState::Runnable);  // same instant
  tracer.state_change(1, msec(9), ThreadState::Running);
  tracer.finalize(msec(9));
  ASSERT_EQ(tracer.intervals().size(), 1u);
  EXPECT_EQ(tracer.intervals()[0].state, ThreadState::Runnable);
}

TEST(Tracer, FinalizeIsIdempotentPerInstant) {
  Tracer tracer;
  tracer.register_thread(meta(1, "t"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.finalize(sec(1));
  tracer.finalize(sec(1));
  EXPECT_EQ(tracer.intervals().size(), 1u);
}

TEST(Tracer, TerminatedClosesForGood) {
  Tracer tracer;
  tracer.register_thread(meta(1, "t"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.state_change(1, sec(1), ThreadState::Terminated);
  tracer.finalize(sec(5));
  ASSERT_EQ(tracer.intervals().size(), 1u);
  EXPECT_EQ(tracer.intervals()[0].end, sec(1));
}

TEST(Tracer, ClearEventsKeepsThreadRegistry) {
  Tracer tracer;
  tracer.register_thread(meta(1, "t"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.instant(InstantKind::FrameDropped, sec(1), 1, 7);
  tracer.finalize(sec(2));
  tracer.clear_events();
  EXPECT_TRUE(tracer.intervals().empty());
  EXPECT_TRUE(tracer.instants().empty());
  EXPECT_NE(tracer.thread(1), nullptr);
}

TEST(Tracer, OutOfOrderAndGappedTidsCloseTheirOwnIntervals) {
  Tracer tracer;
  tracer.state_change(9, 0, ThreadState::Running);
  tracer.state_change(2, msec(1), ThreadState::Runnable);
  tracer.state_change(5, msec(2), ThreadState::Sleeping);
  tracer.state_change(2, msec(4), ThreadState::Running);
  tracer.state_change(9, msec(6), ThreadState::RunnablePreempted, 2);

  ASSERT_EQ(tracer.intervals().size(), 2u);
  EXPECT_EQ(tracer.intervals()[0].tid, 2u);
  EXPECT_EQ(tracer.intervals()[0].state, ThreadState::Runnable);
  EXPECT_EQ(tracer.intervals()[0].begin, msec(1));
  EXPECT_EQ(tracer.intervals()[0].end, msec(4));
  EXPECT_EQ(tracer.intervals()[1].tid, 9u);
  EXPECT_EQ(tracer.intervals()[1].state, ThreadState::Running);
  EXPECT_EQ(tracer.intervals()[1].end, msec(6));

  // finalize() closes in the iteration order of a hash set fed the
  // first-seen sequence — the order the per-state sums have always used.
  tracer.finalize(msec(10));
  std::unordered_set<ThreadId> first_seen;
  for (const ThreadId tid : {9u, 2u, 5u}) first_seen.insert(tid);
  std::vector<ThreadId> expected(first_seen.begin(), first_seen.end());
  ASSERT_EQ(tracer.intervals().size(), 5u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const StateInterval& closing = tracer.intervals()[2 + i];
    EXPECT_EQ(closing.tid, expected[i]);
    EXPECT_EQ(closing.end, msec(10));
    EXPECT_EQ(closing.preemptor, closing.tid == 9 ? 2u : kNoThread);
  }
}

TEST(Tracer, FinalizeClosesEachOpenThreadExactlyOnce) {
  Tracer tracer;
  // 40 threads with gaps, opened in descending order; every third one
  // terminates before the end of the run.
  std::vector<ThreadId> tids;
  for (ThreadId tid = 120; tid >= 3; tid -= 3) tids.push_back(tid);
  for (const ThreadId tid : tids) {
    tracer.state_change(tid, 0, ThreadState::Runnable);
    tracer.state_change(tid, msec(tid), ThreadState::Running);
    if (tid % 9 == 0) tracer.state_change(tid, msec(200), ThreadState::Terminated);
  }
  const std::size_t before = tracer.intervals().size();
  tracer.finalize(sec(1));
  tracer.finalize(sec(1));  // same instant: nothing new

  std::map<ThreadId, int> closed;
  for (std::size_t i = before; i < tracer.intervals().size(); ++i) {
    const StateInterval& closing = tracer.intervals()[i];
    EXPECT_EQ(closing.end, sec(1));
    EXPECT_EQ(closing.state, ThreadState::Running);
    ++closed[closing.tid];
  }
  for (const ThreadId tid : tids) {
    EXPECT_EQ(closed[tid], tid % 9 == 0 ? 0 : 1) << "tid " << tid;
  }

  // A later finalize closes the follow-on stretch, again once each.
  const std::size_t after_first = tracer.intervals().size();
  tracer.finalize(sec(2));
  EXPECT_EQ(tracer.intervals().size() - after_first, after_first - before);
}

TEST(Tracer, ClearEventsResetsOpenIntervalsButKeepsThreads) {
  Tracer tracer;
  tracer.register_thread(meta(4, "t"));
  tracer.register_thread(meta(11, "u"));
  tracer.state_change(4, 0, ThreadState::Running);
  tracer.state_change(11, 0, ThreadState::Sleeping);
  tracer.clear_events();

  tracer.finalize(sec(1));
  EXPECT_TRUE(tracer.intervals().empty());
  EXPECT_EQ(tracer.threads().size(), 2u);
  ASSERT_NE(tracer.thread(11), nullptr);
  EXPECT_EQ(tracer.thread(11)->name, "u");

  // A thread seen again after the clear starts fresh.
  tracer.state_change(11, sec(2), ThreadState::Runnable);
  tracer.state_change(11, sec(3), ThreadState::Running);
  tracer.finalize(sec(4));
  ASSERT_EQ(tracer.intervals().size(), 2u);
  EXPECT_EQ(tracer.intervals()[0].begin, sec(2));
  EXPECT_EQ(tracer.intervals()[0].state, ThreadState::Runnable);
  EXPECT_EQ(tracer.intervals()[1].begin, sec(3));
  EXPECT_EQ(tracer.intervals()[1].tid, 11u);
}

TEST(Tracer, ZeroLengthStateChangeOnAFreshTidRecordsNothing) {
  Tracer tracer;
  tracer.state_change(17, msec(3), ThreadState::Runnable);
  tracer.state_change(17, msec(3), ThreadState::Running);
  tracer.finalize(msec(3));
  EXPECT_TRUE(tracer.intervals().empty());
  tracer.finalize(msec(8));
  ASSERT_EQ(tracer.intervals().size(), 1u);
  EXPECT_EQ(tracer.intervals()[0].state, ThreadState::Running);
  EXPECT_EQ(tracer.intervals()[0].begin, msec(3));
}

TEST(Analysis, StateTimesSumPerState) {
  Tracer tracer;
  tracer.register_thread(meta(1, "a"));
  tracer.register_thread(meta(2, "b"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.state_change(1, sec(2), ThreadState::Runnable);
  tracer.state_change(1, sec(3), ThreadState::RunnablePreempted, 9);
  tracer.state_change(1, sec(5), ThreadState::Running);
  tracer.state_change(2, 0, ThreadState::Running);
  tracer.finalize(sec(6));

  const auto both = state_times(tracer, {1, 2});
  EXPECT_DOUBLE_EQ(both.running, 2.0 + 1.0 + 6.0);
  EXPECT_DOUBLE_EQ(both.runnable, 1.0);
  EXPECT_DOUBLE_EQ(both.runnable_preempted, 2.0);

  const auto only_a = state_times(tracer, {1});
  EXPECT_DOUBLE_EQ(only_a.running, 3.0);
}

TEST(Analysis, StateTimesRespectsWindow) {
  Tracer tracer;
  tracer.register_thread(meta(1, "a"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.finalize(sec(10));
  const auto windowed = state_times(tracer, {1}, sec(2), sec(5));
  EXPECT_DOUBLE_EQ(windowed.running, 3.0);
}

TEST(Analysis, TopRunningThreadsRanked) {
  Tracer tracer;
  tracer.register_thread(meta(1, "small"));
  tracer.register_thread(meta(2, "big"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.state_change(1, sec(1), ThreadState::Sleeping);
  tracer.state_change(2, sec(1), ThreadState::Running);
  tracer.state_change(2, sec(9), ThreadState::Sleeping);
  tracer.finalize(sec(9));

  const auto top = top_running_threads(tracer);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "big");
  EXPECT_EQ(top[0].rank, 1u);
  EXPECT_DOUBLE_EQ(top[0].running_seconds, 8.0);
  EXPECT_EQ(running_rank(tracer, "small"), 2u);
  EXPECT_EQ(running_rank(tracer, "absent"), 0u);
}

TEST(Analysis, PreemptionStatsFiltersByPreemptorName) {
  Tracer tracer;
  tracer.register_thread(meta(1, "victim"));
  tracer.register_thread(meta(2, "mmcqd", "kernel"));
  tracer.register_thread(meta(3, "other"));
  tracer.preemption({1, 2, sec(1), msec(10), msec(40)});
  tracer.preemption({1, 2, sec(2), msec(20), msec(60)});
  tracer.preemption({1, 3, sec(3), msec(99), msec(99)});

  const auto stats = preemption_stats(tracer, {1}, "mmcqd");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.preemptor_run_seconds, 0.03);
  EXPECT_DOUBLE_EQ(stats.victim_wait_seconds, 0.1);
}

TEST(Analysis, StateFractionsSumToOne) {
  Tracer tracer;
  tracer.register_thread(meta(1, "kswapd", "kernel"));
  tracer.state_change(1, 0, ThreadState::Sleeping);
  tracer.state_change(1, sec(6), ThreadState::Running);
  tracer.state_change(1, sec(8), ThreadState::Runnable);
  tracer.finalize(sec(10));

  const auto fractions = state_fractions(tracer, 1);
  EXPECT_DOUBLE_EQ(fractions.at("Sleeping"), 0.6);
  EXPECT_DOUBLE_EQ(fractions.at("Running"), 0.2);
  double total = 0.0;
  for (const auto& [name, f] : fractions) total += f;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Analysis, PerSecondSeriesAveragesWithinBuckets) {
  Tracer tracer;
  tracer.counter("fps", msec(100), 60.0);
  tracer.counter("fps", msec(900), 30.0);
  tracer.counter("fps", sec(2), 24.0);
  const auto series = per_second_series(tracer, "fps", -1.0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 45.0);
  EXPECT_DOUBLE_EQ(series[1], -1.0);  // no samples -> default
  EXPECT_DOUBLE_EQ(series[2], 24.0);
}

TEST(Analysis, InstantsPerSecondAndCumulative) {
  Tracer tracer;
  tracer.instant(InstantKind::ProcessKilled, msec(500), 1, 900);
  tracer.instant(InstantKind::ProcessKilled, msec(700), 2, 901);
  tracer.instant(InstantKind::ProcessKilled, sec(2) + msec(1), 3, 902);
  tracer.instant(InstantKind::FrameDropped, sec(1), 4, 0);

  const auto kills = instants_per_second(tracer, InstantKind::ProcessKilled);
  ASSERT_EQ(kills.size(), 3u);
  EXPECT_EQ(kills[0], 2u);
  EXPECT_EQ(kills[1], 0u);
  EXPECT_EQ(kills[2], 1u);

  const auto cumulative = cumulative_instants(tracer, InstantKind::ProcessKilled);
  EXPECT_EQ(cumulative[0], 2u);
  EXPECT_EQ(cumulative[2], 3u);
}

TEST(Analysis, RunningFractionPerSecond) {
  Tracer tracer;
  tracer.register_thread(meta(1, "lmkd"));
  // Runs 0.0-0.5s, sleeps, runs again 2.25-2.75s.
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.state_change(1, msec(500), ThreadState::Sleeping);
  tracer.state_change(1, msec(2250), ThreadState::Running);
  tracer.state_change(1, msec(2750), ThreadState::Sleeping);
  tracer.finalize(sec(4));

  const auto fractions = running_fraction_per_second(tracer, 1);
  ASSERT_GE(fractions.size(), 4u);
  EXPECT_NEAR(fractions[0], 0.5, 1e-9);
  EXPECT_NEAR(fractions[1], 0.0, 1e-9);
  EXPECT_NEAR(fractions[2], 0.5, 1e-9);
  EXPECT_NEAR(fractions[3], 0.0, 1e-9);
}

TEST(Analysis, RunningFractionSpanningSecondBoundary) {
  Tracer tracer;
  tracer.register_thread(meta(1, "t"));
  tracer.state_change(1, msec(800), ThreadState::Running);
  tracer.state_change(1, msec(1400), ThreadState::Sleeping);
  tracer.finalize(sec(2));
  const auto fractions = running_fraction_per_second(tracer, 1);
  ASSERT_GE(fractions.size(), 2u);
  EXPECT_NEAR(fractions[0], 0.2, 1e-9);
  EXPECT_NEAR(fractions[1], 0.4, 1e-9);
}

TEST(Analysis, ToStringCoversAllStates) {
  EXPECT_STREQ(to_string(ThreadState::Running), "Running");
  EXPECT_STREQ(to_string(ThreadState::RunnablePreempted), "Runnable (Preempted)");
  EXPECT_STREQ(to_string(ThreadState::BlockedIo), "Blocked I/O");
}

}  // namespace
}  // namespace mvqoe::trace
