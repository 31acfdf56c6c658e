// mvbench — the layered mvqoe benchmark harness.
//
//   mvbench --workload NAME --seed N --seconds S [--trace 0|1] [--tiny]
//           [--out-dir DIR]
//
// Workloads (README.md explains why each was chosen):
//   pressure_sweep  fig16 grid: 4 pressure states x {480,720,1080} x
//                   {30,60} fps x every mem policy, one unit = one warm
//                   group through runner::run_warm_group (serial).
//   fleet_study     fleet::run_fleet in the serial cold lane; one unit =
//                   one shard of devices.
//   net_contention  Normal-pressure fig16 480p30 sessions sharing the
//                   bottleneck with bulk + on/off cross traffic, one cold
//                   scenario per controller (cubic, bbr, c4) and seed.
//   fuzz_campaign   generated scenarios over every policy x controller,
//                   full oracle suite + meta checks, through the
//                   multi-process campaign coordinator (2 workers).
//
// Every workload is a closed loop: one unit starts when the previous one
// ends. A run repeats a fixed *pass* (the inputs derived from --seed)
// until --seconds have elapsed, finishing the pass in flight, so every
// run measures whole passes and each pass must reproduce the first
// pass's model digest.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends half of
// the budget untraced and half traced: spans recorded here, around the
// public calls into each layer, give per-layer self times, and the two
// halves give the tracing overhead. Spans are kept in memory and written
// to DIR/<workload>-seed<N>.spans.jsonl when the run ends.
//
// The last stdout line is one JSON object (metrics with unit and sample
// count, correctness checks, digests, modelled-output summary) that
// run.py turns into the report. Exit status: 0 all checks passed, 1 a
// check or unit failed, 2 usage error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/fuzz_campaign.hpp"
#include "check/generator.hpp"
#include "check/harness.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/device_session.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "mem/policy.hpp"
#include "net/cc.hpp"
#include "qoe/metrics.hpp"
#include "runner/warm_sweep.hpp"
#include "scenario/driver.hpp"
#include "scenario/spec.hpp"
#include "snapshot/blob.hpp"
#include "snapshot/bytes.hpp"
#include "snapshot/digest.hpp"
#include "stats/rng.hpp"
#include "study/population.hpp"

#ifndef MVBENCH_BUILD_TYPE
#define MVBENCH_BUILD_TYPE "unknown"
#endif
#ifndef MVBENCH_COMPILER
#define MVBENCH_COMPILER "unknown"
#endif

namespace mvbench {
namespace {

using namespace mvqoe;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process in MB: VmHWM, which unlike
/// ru_maxrss does not inherit the launching process's high-water mark
/// across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage self{};
  return ::getrusage(RUSAGE_SELF, &self) == 0 ? static_cast<double>(self.ru_maxrss) / 1024.0 : 0.0;
}

/// Peak resident set of the largest waited-for child process, in MB.
double worker_peak_rss_mb() {
  rusage children{};
  return ::getrusage(RUSAGE_CHILDREN, &children) == 0
             ? static_cast<double>(children.ru_maxrss) / 1024.0
             : 0.0;
}

// --- Spans ---------------------------------------------------------------

/// In-memory span recorder: name, start, end, parent span, unit id.
/// Spans nest strictly (a stack), so a span's self time is its duration
/// minus the durations of its direct children.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
    std::uint64_t unit;
  };

  int begin(const char* name, std::uint64_t unit) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now(), 0.0, open_.empty() ? -1 : open_.back(), unit});
    open_.push_back(index);
    return index;
  }
  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end_s = now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per span index (duration minus direct children).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
    return self;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_s\":" << s.start_s
          << ",\"end_s\":" << s.end_s << ",\"parent\":" << s.parent << ",\"unit\":" << s.unit
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t unit) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->begin(name, unit);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_ = -1;
};

/// Per-unit layer counts read from the layers' public getters: every
/// add() is one sample; the reported value is the mean per sample.
class Tally {
 public:
  void add(const std::string& name, double value) {
    Acc& acc = acc_[name];
    acc.sum += value;
    ++acc.n;
  }
  double sum(const std::string& name) const {
    const auto it = acc_.find(name);
    return it == acc_.end() ? 0.0 : it->second.sum;
  }
  std::uint64_t count(const std::string& name) const {
    const auto it = acc_.find(name);
    return it == acc_.end() ? 0 : it->second.n;
  }
  double mean(const std::string& name) const {
    const std::uint64_t n = count(name);
    return n == 0 ? 0.0 : sum(name) / static_cast<double>(n);
  }

 private:
  struct Acc {
    double sum = 0.0;
    std::uint64_t n = 0;
  };
  std::map<std::string, Acc> acc_;
};

// --- Report --------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ",\"" : "\"") + json_escape(items[i]) + "\"";
  }
  return out + "]";
}

struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t n = 0;
    std::string note;
  };
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };

  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<std::pair<std::string, std::string>> model;
  std::uint64_t units_attempted = 0;
  std::uint64_t units_failed = 0;
  std::vector<std::string> errors;
  /// mvqoe_fleet arguments that must reproduce the fleet digest (run.py
  /// runs the CLI and compares).
  std::vector<std::string> fleet_cli_args;

  void metric(std::string name, double value, std::string unit, std::uint64_t n,
              std::string note = "") {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), n, std::move(note)});
  }
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
  void digest(std::string name, std::uint64_t value) {
    digests.emplace_back(std::move(name), hex64(value));
  }
  void unit_failed(std::string why) {
    ++units_failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }

  std::uint64_t attempted() const { return units_attempted + checks.size(); }
  std::uint64_t failed() const {
    std::uint64_t bad = units_failed;
    for (const Check& c : checks) bad += c.ok ? 0 : 1;
    return bad;
  }

  std::string json(const std::string& workload, std::uint64_t seed, bool trace) const {
    std::string out = "{\"workload\":\"" + workload + "\",\"seed\":" + std::to_string(seed) +
                      ",\"trace\":" + (trace ? "1" : "0") + ",\"build_type\":\"" +
                      json_escape(MVBENCH_BUILD_TYPE) + "\",\"compiler\":\"" +
                      json_escape(MVBENCH_COMPILER) + "\",\"attempted\":" +
                      std::to_string(attempted()) + ",\"failed\":" + std::to_string(failed()) +
                      ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      out += (i ? "," : "") + std::string("\"") + m.name + "\":{\"value\":" +
             json_number(m.value) + ",\"unit\":\"" + m.unit + "\",\"n\":" +
             std::to_string(m.n) + ",\"note\":\"" + json_escape(m.note) + "\"}";
    }
    out += "},\"checks\":[";
    for (std::size_t i = 0; i < checks.size(); ++i) {
      const Check& c = checks[i];
      out += (i ? "," : "") + std::string("{\"name\":\"") + json_escape(c.name) +
             "\",\"ok\":" + (c.ok ? "true" : "false") + ",\"detail\":\"" +
             json_escape(c.detail) + "\"}";
    }
    out += "],\"digests\":{";
    for (std::size_t i = 0; i < digests.size(); ++i) {
      out += (i ? "," : "") + std::string("\"") + json_escape(digests[i].first) + "\":\"" +
             digests[i].second + "\"";
    }
    out += "},\"model\":[";
    for (std::size_t i = 0; i < model.size(); ++i) {
      out += (i ? "," : "") + std::string("[\"") + json_escape(model[i].first) + "\",\"" +
             json_escape(model[i].second) + "\"]";
    }
    out += "],\"errors\":" + string_list(errors) +
           ",\"fleet_cli_args\":" + string_list(fleet_cli_args) + "}";
    return out;
  }
};

/// Ten samples beyond a percentile need this many units.
std::size_t units_for_tail(double tail_pct) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - tail_pct / 100.0)));
}

/// Passes whose units hold at least units_for_tail(tail_pct) samples.
int passes_for_tail(double tail_pct, std::size_t units_per_pass) {
  const std::size_t per_pass = std::max<std::size_t>(units_per_pass, 1);
  return static_cast<int>((units_for_tail(tail_pct) + per_pass - 1) / per_pass);
}

/// Median host time per unit over every timed unit, and the tail: the
/// percentile `tail_pct` (nearest rank) over the units of the first
/// passes_for_tail() passes. A fixed unit count keeps the tail's rank at
/// the same place in every run (a pass holds a fixed mix of unit types,
/// so a rank that moved with the number of passes that fit in the
/// window would jump between types); it leaves at least ten samples
/// beyond the tail, and the note states the percentile, n and that count.
void report_unit_times(Report& report, const std::vector<double>& unit_ms, double tail_pct,
                       std::size_t units_per_pass) {
  report.metric("unit_p50_ms", median(unit_ms), "ms", unit_ms.size(), "median host ms per unit");
  const std::size_t n = std::min(
      unit_ms.size(),
      static_cast<std::size_t>(passes_for_tail(tail_pct, units_per_pass)) * units_per_pass);
  std::vector<double> head(unit_ms.begin(), unit_ms.begin() + static_cast<std::ptrdiff_t>(n));
  std::sort(head.begin(), head.end());
  double tail = 0.0;
  std::size_t beyond = 0;
  if (n > 0) {
    auto rank = static_cast<std::size_t>(std::ceil(tail_pct / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    tail = head[rank - 1];
    beyond = n - rank;
  }
  char note[128];
  std::snprintf(note, sizeof note, "p%g of the first %zu units, %zu samples beyond it", tail_pct,
                n, beyond);
  report.metric("unit_tail_ms", tail, "ms", n, note);
}

// --- Shared timing loop ----------------------------------------------------

/// Runs `pass` until `budget_s` host seconds have elapsed and at least
/// `min_passes` passes ran, never stopping mid-pass. Returns the wall
/// time spent.
double run_passes(double budget_s, int min_passes, const std::function<void()>& pass) {
  const auto start = Clock::now();
  int passes = 0;
  do {
    pass();
    ++passes;
  } while (passes < min_passes || seconds_between(start, Clock::now()) < budget_s);
  return seconds_between(start, Clock::now());
}

/// Median host seconds of `reps` set-ups (input construction plus one
/// untimed warm-up unit).
double median_setup(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

constexpr int kSetupReps = 7;

/// Compares each pass digest with the first pass's; every comparison is
/// one check.
void check_repeats(Report& report, const std::string& what,
                   const std::vector<std::uint64_t>& digests) {
  for (std::size_t i = 1; i < digests.size(); ++i) {
    report.check(what + " digest repeats (pass " + std::to_string(i) + ")",
                 digests[i] == digests[0], hex64(digests[i]) + " vs " + hex64(digests[0]));
  }
}

// --- One in-process scenario, optionally traced ----------------------------

const char* level_key(mem::PressureLevel level) {
  switch (level) {
    case mem::PressureLevel::Normal: return "normal";
    case mem::PressureLevel::Moderate: return "moderate";
    case mem::PressureLevel::Low: return "low";
    case mem::PressureLevel::Critical: return "critical";
  }
  return "normal";
}

struct CellTarget {
  int height = 0;
  int fps = 0;
  std::uint64_t video_seed = 0;
};

struct Driven {
  scenario::ScenarioResult result;
  double prepare_sim_s = 0.0;  // simulated time at the end of prepare()
  double end_sim_s = 0.0;      // simulated time when the run ended
  std::uint64_t state_digest = 0;
  std::uint64_t qdelay_samples = 0;
  double qdelay_total_us = 0.0;
};

/// Read every layer's public counters off a finished world.
void tally_layers(Tally& tally, const scenario::ScenarioDriver& driver,
                  const scenario::ScenarioResult& result, const char* state) {
  const core::Testbed& tb = driver.testbed();
  tally.add("sim.events", static_cast<double>(tb.engine.dispatched()));
  tally.add("sim.cancels", static_cast<double>(tb.engine.cancels()));

  const mem::VmStat& vm = tb.memory.vmstat();
  const std::pair<const char*, double> mem_counts[] = {
      {"pgscan_kswapd", static_cast<double>(vm.pgscan_kswapd)},
      {"pgscan_direct", static_cast<double>(vm.pgscan_direct)},
      {"direct_reclaim_entries", static_cast<double>(vm.direct_reclaim_entries)},
      {"kills_lmkd", static_cast<double>(vm.kills_lmkd)},
      {"pswpout", static_cast<double>(vm.pswpout)},
      {"pswpin", static_cast<double>(vm.pswpin)},
  };
  const double scanned = static_cast<double>(vm.pgscan_kswapd + vm.pgscan_direct);
  const double stolen = static_cast<double>(vm.pgsteal_kswapd + vm.pgsteal_direct);
  for (const auto& [name, value] : mem_counts) {
    tally.add(std::string("mem.") + name, value);
    if (state != nullptr) tally.add(std::string("mem.") + name + "." + state, value);
  }
  tally.add("mem.pgscan", scanned);
  tally.add("mem.pgsteal", stolen);
  if (state != nullptr) {
    tally.add(std::string("mem.pgscan.") + state, scanned);
    tally.add(std::string("mem.pgsteal.") + state, stolen);
  }

  double switches = 0.0;
  double preemptions = 0.0;
  for (std::size_t tid = 1; tid <= tb.scheduler.thread_count(); ++tid) {
    const sched::ThreadCounters& c = tb.scheduler.counters(static_cast<sched::ThreadId>(tid));
    switches += static_cast<double>(c.context_switches);
    preemptions += static_cast<double>(c.preemptions_suffered);
  }
  tally.add("sched.context_switches", switches);
  tally.add("sched.preemptions", preemptions);

  const storage::StorageCounters& io = tb.storage.counters();
  tally.add("storage.reads", static_cast<double>(io.reads));
  tally.add("storage.writes", static_cast<double>(io.writes));
  tally.add("storage.io_bytes", static_cast<double>(io.read_bytes + io.written_bytes));

  double decoded = 0.0;
  double dropped = 0.0;
  for (const scenario::SessionReport& s : result.sessions) {
    decoded += static_cast<double>(s.result.metrics.frames_presented + s.result.metrics.frames_dropped);
    dropped += static_cast<double>(s.result.metrics.frames_dropped);
  }
  tally.add("video.frames_decoded", decoded);
  tally.add("video.frames_dropped", dropped);

  tally.add("net.packets_sent", static_cast<double>(tb.link.packets_sent()));
  tally.add("net.packets_dropped", static_cast<double>(tb.link.packets_dropped()));
}

/// prepare -> (set_cell) -> start + advance loop -> finalize, with spans
/// around each phase when traced and layer counts read afterwards.
Driven drive_scenario(scenario::ScenarioSpec spec, const std::optional<CellTarget>& cell,
                      Tracer* tracer, Tally* tally, std::uint64_t unit, const char* state,
                      bool digest) {
  Driven out;
  scenario::ScenarioDriver driver(std::move(spec));
  {
    Scope span(tracer, "scenario.prepare", unit);
    driver.prepare();
  }
  out.prepare_sim_s = sim::to_seconds(driver.testbed().engine.now());
  if (cell) driver.set_cell(cell->height, cell->fps, cell->video_seed);
  const std::uint64_t events_before = driver.testbed().engine.dispatched();
  const std::uint64_t packets_before = driver.testbed().link.packets_sent();
  const auto advance_start = Clock::now();
  {
    Scope span(tracer, "scenario.advance", unit);
    driver.start();
    while (driver.advance_slice()) {
    }
  }
  const double advance_ns = seconds_between(advance_start, Clock::now()) * 1e9;
  {
    Scope span(tracer, "scenario.finalize", unit);
    out.result = driver.finalize();
  }
  const core::Testbed& tb = driver.testbed();
  out.end_sim_s = sim::to_seconds(tb.engine.now());
  out.qdelay_samples = tb.link.queue_delay().samples;
  out.qdelay_total_us = static_cast<double>(tb.link.queue_delay().total);
  if (digest) {
    Scope span(tracer, "snapshot.digest", unit);
    out.state_digest = driver.state_digest();
  }
  if (tally != nullptr) {
    tally_layers(*tally, driver, out.result, state);
    tally->add("sim.advance_ns", advance_ns);
    tally->add("sim.advance_events",
               static_cast<double>(tb.engine.dispatched() - events_before));
    tally->add("net.advance_packets", static_cast<double>(tb.link.packets_sent() - packets_before));
  }
  return out;
}

// --- Per-layer metric emission ----------------------------------------------

struct SpanStats {
  double self_sum_s = 0.0;
  double total_sum_s = 0.0;
  std::uint64_t n = 0;
};

std::map<std::string, SpanStats> span_stats(const Tracer& tracer) {
  std::map<std::string, SpanStats> stats;
  const std::vector<double> self = tracer.self_times();
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    SpanStats& st = stats[s.name];
    st.self_sum_s += self[i];
    st.total_sum_s += s.end_s - s.start_s;
    ++st.n;
  }
  return stats;
}

/// Share of root-unit ("bench.unit") wall time covered by layer spans.
double span_coverage_pct(const Tracer& tracer) {
  const std::vector<double> self = tracer.self_times();
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    if (std::strcmp(s.name, "bench.unit") != 0) continue;
    total += s.end_s - s.start_s;
    uncovered += self[i];
  }
  return total > 0.0 ? 100.0 * (total - uncovered) / total : 0.0;
}

/// Emit every per-layer metric (zero where the workload bypasses the
/// layer), so each workload's trace prints the same names.
void report_layers(Report& report, const Tracer& tracer, const Tally& tally,
                   double overhead_pct) {
  const auto stats = span_stats(tracer);
  const auto span_metric = [&](const char* metric, const char* span, double scale,
                               const char* unit, bool inclusive) {
    const auto it = stats.find(span);
    if (it == stats.end() || it->second.n == 0) {
      report.metric(metric, 0.0, unit, 0, std::string("no ") + span + " spans");
      return;
    }
    const SpanStats& st = it->second;
    const double sum = inclusive ? st.total_sum_s : st.self_sum_s;
    report.metric(metric, sum / static_cast<double>(st.n) * scale, unit, st.n,
                  std::string(inclusive ? "inclusive" : "self") + " time per " + span + " span");
  };
  const auto count_metric = [&](const std::string& name, const char* unit) {
    report.metric(name, tally.mean(name), unit, tally.count(name),
                  tally.count(name) ? "mean per sample" : "layer bypassed");
  };
  const auto ratio_metric = [&](const std::string& name, const std::string& num,
                                const std::string& den, const char* unit) {
    const double d = tally.sum(den);
    report.metric(name, d > 0.0 ? tally.sum(num) / d : 0.0, unit, tally.count(den),
                  d > 0.0 ? num + " / " + den : "layer bypassed");
  };

  count_metric("sim.events", "count");
  count_metric("sim.cancels", "count");
  ratio_metric("sim.ns_per_event", "sim.advance_ns", "sim.advance_events", "ns");

  span_metric("scenario.prepare_ms", "scenario.prepare", 1e3, "ms", false);
  span_metric("scenario.advance_ms", "scenario.advance", 1e3, "ms", false);
  span_metric("scenario.finalize_ms", "scenario.finalize", 1e3, "ms", false);

  span_metric("runner.warm_group_ms", "runner.warm_group", 1e3, "ms", true);
  span_metric("runner.cold_group_ms", "runner.cold_group", 1e3, "ms", true);

  const char* mem_counts[] = {"pgscan_kswapd", "pgscan_direct", "direct_reclaim_entries",
                              "kills_lmkd", "pswpout", "pswpin"};
  for (const char* suffix : {"", ".normal", ".moderate", ".low", ".critical"}) {
    const std::string s = suffix;
    for (const char* name : mem_counts) {
      count_metric(std::string("mem.") + name + s, "count");
    }
    ratio_metric("mem.steal_ratio" + s, "mem.pgsteal" + s, "mem.pgscan" + s, "ratio");
  }

  count_metric("sched.context_switches", "count");
  count_metric("sched.preemptions", "count");
  count_metric("storage.reads", "count");
  count_metric("storage.writes", "count");
  count_metric("storage.io_bytes", "bytes");
  count_metric("video.frames_decoded", "count");
  count_metric("video.frames_dropped", "count");
  count_metric("net.packets_sent", "count");
  count_metric("net.packets_dropped", "count");
  ratio_metric("net.ns_per_packet", "sim.advance_ns", "net.advance_packets", "ns");

  span_metric("fleet.shard_ms", "fleet.shard", 1e3, "ms", true);
  span_metric("fleet.prepare_world_ms", "fleet.prepare_world", 1e3, "ms", false);
  span_metric("fleet.drive_session_us", "fleet.drive_session", 1e6, "us", false);
  count_metric("fleet.payload_bytes", "bytes");
  count_metric("proc.respawns", "count");
  span_metric("stats.fold_us", "stats.fold", 1e6, "us", false);
  span_metric("stats.merge_ms", "stats.merge", 1e3, "ms", false);

  span_metric("check.generate_us", "check.generate", 1e6, "us", false);
  span_metric("check.primary_ms", "check.primary", 1e3, "ms", false);
  {
    const auto meta = stats.find("check.meta");
    const auto primary = stats.find("check.primary");
    if (meta != stats.end() && primary != stats.end() && meta->second.n > 0 &&
        primary->second.n > 0) {
      const double extra = meta->second.self_sum_s / static_cast<double>(meta->second.n) -
                           primary->second.self_sum_s / static_cast<double>(primary->second.n);
      report.metric("check.meta_ms", extra * 1e3, "ms", meta->second.n,
                    "check.meta span minus check.primary span, per run");
    } else {
      report.metric("check.meta_ms", 0.0, "ms", 0, "no check spans");
    }
  }
  count_metric("check.violations", "count");
  span_metric("snapshot.digest_us", "snapshot.digest", 1e6, "us", false);
  span_metric("snapshot.save_us", "snapshot.save", 1e6, "us", false);
  count_metric("snapshot.bytes", "bytes");

  count_metric("campaign.attempts", "count");
  count_metric("campaign.failed_shards", "count");
  count_metric("campaign.checkpoint_bytes", "bytes");
  count_metric("campaign.efficiency", "ratio");
  count_metric("campaign.worker_peak_rss_mb", "MB");

  std::uint64_t roots = 0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (std::strcmp(s.name, "bench.unit") == 0) ++roots;
  }
  report.metric("trace.span_coverage_pct", span_coverage_pct(tracer), "%", roots,
                "share of bench.unit wall time inside layer spans");
  report.metric("trace.overhead_pct", overhead_pct, "%", 2,
                "untraced / traced sim_s_per_host_s - 1");
  report.metric("trace.spans", static_cast<double>(tracer.spans().size()), "count", 1,
                "spans recorded in the traced half");
}

// --- Workload plumbing -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".bench_build/run";
};

/// What one timed window produced: simulated seconds over host seconds.
struct Window {
  double sim_s = 0.0;
  double host_s = 0.0;
  double rate() const { return host_s > 0.0 ? sim_s / host_s : 0.0; }
};

/// End-to-end metrics shared by every workload's untraced run.
void report_end_to_end(Report& report, double setup_s, const Window& window,
                       const std::vector<double>& unit_ms, double tail_pct,
                       std::size_t units_per_pass, double rss_mb) {
  report.metric("setup_s", setup_s, "s", kSetupReps,
                "median of set-ups: inputs + one untimed warm-up unit");
  report.metric("sim_s_per_host_s", window.rate(), "s/s", unit_ms.size(),
                "simulated device-seconds advanced per host second");
  report_unit_times(report, unit_ms, tail_pct, units_per_pass);
  report.metric("peak_rss_mb", rss_mb, "MB", 1, "host process high-water mark");
}

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

// =============================================================================
// pressure_sweep
// =============================================================================

constexpr double kSweepTail = 90;
const std::vector<int> kSweepFps = {30, 60};
const std::vector<int> kSweepHeights = {480, 720, 1080};
const std::array<mem::PressureLevel, 4> kStates = {
    mem::PressureLevel::Normal, mem::PressureLevel::Moderate, mem::PressureLevel::Low,
    mem::PressureLevel::Critical};

struct SweepGroup {
  std::size_t policy = 0;
  mem::PressureLevel state = mem::PressureLevel::Normal;
  int run = 0;
};

struct SweepInputs {
  std::vector<std::string> policies;
  std::vector<scenario::ScenarioSpec> protos;  // one per policy
  std::vector<SweepGroup> groups;              // one pass, run-major, policy fastest
  std::uint64_t base_seed = 0;
};

SweepInputs make_sweep_inputs(std::uint64_t seed, bool tiny) {
  SweepInputs in;
  in.base_seed = stats::derive_seed(seed, 0x5357u /* "SW" */);
  in.policies = mem::mem_policy_names();
  for (const std::string& name : in.policies) {
    scenario::ScenarioSpec proto;
    proto.family = "fig16";
    proto.mem_policy = mem::MemPolicySpec{name, {}};
    scenario::VideoWorkloadSpec video;
    video.duration_s = tiny ? 6 : 60;
    proto.workloads.emplace_back(std::move(video));
    in.protos.push_back(std::move(proto));
  }
  const int runs = tiny ? 1 : 2;
  for (int run = 0; run < runs; ++run) {
    for (const mem::PressureLevel state : kStates) {
      for (std::size_t p = 0; p < in.policies.size(); ++p) in.groups.push_back({p, state, run});
    }
  }
  return in;
}

std::string encode_group(const std::vector<runner::CellRunOutcome>& outcomes) {
  snapshot::ByteWriter w;
  for (const runner::CellRunOutcome& o : outcomes) runner::encode_cell_outcome(w, o);
  return std::move(w).take();
}

struct GroupReplay {
  std::vector<runner::CellRunOutcome> outcomes;
  double sim_s = 0.0;  // what the warm group advances: world once + each cell's video phase
};

/// The warm group's cells replayed in-process, one prepare per cell,
/// with exactly run_warm_group's seeds and phase order.
GroupReplay replay_group(const SweepInputs& in, const SweepGroup& g, Tracer* tracer,
                         Tally* tally, std::uint64_t unit) {
  Scope span(tracer, "runner.cold_group", unit);
  GroupReplay out;
  const std::uint64_t group_seed = runner::sweep_group_seed(in.base_seed, g.state, g.run);
  scenario::ScenarioSpec world = in.protos[g.policy];
  world.state = g.state;
  world.world_seed = group_seed;
  world.seed = group_seed;
  scenario::video_spec(world).seed = group_seed;
  double world_s = 0.0;
  for (const int f : kSweepFps) {
    for (const int h : kSweepHeights) {
      runner::CellRunOutcome cell;
      try {
        const Driven d =
            drive_scenario(world, CellTarget{h, f, runner::sweep_video_seed(group_seed, h, f)},
                           tracer, tally, unit, level_key(g.state), false);
        cell.outcome = d.result.sessions.at(0).result.outcome;
        cell.ok = true;
        world_s = d.prepare_sim_s;
        out.sim_s += d.end_sim_s - d.prepare_sim_s;
      } catch (const std::exception& e) {
        cell.error = e.what();
      }
      out.outcomes.push_back(std::move(cell));
    }
  }
  out.sim_s += world_s;
  return out;
}

void add_sweep_model(Report& report, const SweepInputs& in,
                     const std::vector<std::vector<runner::CellRunOutcome>>& pass) {
  for (const mem::PressureLevel state : kStates) {
    for (std::size_t p = 0; p < in.policies.size(); ++p) {
      qoe::RunAggregate agg;
      for (std::size_t g = 0; g < in.groups.size(); ++g) {
        if (in.groups[g].state != state || in.groups[g].policy != p) continue;
        for (const runner::CellRunOutcome& o : pass[g]) {
          if (o.ok) agg.add(o.outcome);
        }
      }
      report.model.emplace_back(
          std::string("pressure_sweep ") + level_key(state) + " x " + in.policies[p],
          fmt("drop %.2f%%  crash %.1f%%", agg.drop_rate().mean * 100.0,
              agg.crash_rate_percent()));
    }
  }
}

void run_pressure_sweep(const Args& args, Report& report) {
  SweepInputs in;
  const double setup_s = median_setup(kSetupReps, [&] {
    in = make_sweep_inputs(args.seed, args.tiny);
    const SweepGroup& g = in.groups.front();
    runner::run_warm_group(in.protos[g.policy], g.state, g.run, kSweepFps, kSweepHeights,
                           in.base_seed, 1);
  });

  std::vector<double> unit_ms;
  std::vector<std::uint64_t> pass_digests;
  std::vector<std::vector<runner::CellRunOutcome>> first_pass;
  // Simulated seconds per group come from an in-process replay of the
  // group, which must also reproduce the warm outcomes byte for byte.
  std::vector<double> group_sim_s(in.groups.size(), 0.0);
  const auto replay_and_check = [&](std::size_t i, const std::vector<runner::CellRunOutcome>& warm,
                                    Tracer* tracer, Tally* tally) {
    const GroupReplay replay = replay_group(in, in.groups[i], tracer, tally, i);
    group_sim_s[i] = replay.sim_s;
    report.check("pressure_sweep replay == warm group " + std::to_string(i),
                 encode_group(replay.outcomes) == encode_group(warm),
                 "in-process cells vs forked cells");
  };

  // One pass of warm groups; when traced, each group is also replayed
  // in-process so spans and layer counts come from the same cells.
  const auto warm_pass = [&](Tracer* tracer, Tally* tally, std::vector<double>* times) {
    snapshot::StateHash hash;
    std::vector<std::vector<runner::CellRunOutcome>> pass;
    for (std::size_t i = 0; i < in.groups.size(); ++i) {
      const SweepGroup& g = in.groups[i];
      Scope unit(tracer, "bench.unit", i);
      ++report.units_attempted;
      const auto t0 = Clock::now();
      std::vector<runner::CellRunOutcome> outcomes;
      {
        Scope span(tracer, "runner.warm_group", i);
        outcomes = runner::run_warm_group(in.protos[g.policy], g.state, g.run, kSweepFps,
                                          kSweepHeights, in.base_seed, 1);
      }
      if (times != nullptr) times->push_back(seconds_between(t0, Clock::now()) * 1e3);
      for (const runner::CellRunOutcome& o : outcomes) {
        if (!o.ok) report.unit_failed("pressure_sweep group " + std::to_string(i) + ": " + o.error);
      }
      hash.mix(i);
      hash.mix_bytes(encode_group(outcomes));
      if (tracer != nullptr) replay_and_check(i, outcomes, tracer, tally);
      pass.push_back(std::move(outcomes));
    }
    pass_digests.push_back(hash.value());
    if (first_pass.empty()) first_pass = std::move(pass);
  };

  Window untraced;
  int untraced_passes = 0;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const int min_passes = args.trace ? 1 : passes_for_tail(kSweepTail, in.groups.size());
  untraced.host_s = run_passes(budget, min_passes, [&] {
    warm_pass(nullptr, nullptr, &unit_ms);
    ++untraced_passes;
  });
  const double rss = peak_rss_mb();

  Tracer tracer;
  Tally tally;
  Window traced;
  int traced_passes = 0;
  if (args.trace) {
    traced.host_s = run_passes(args.seconds / 2, 1, [&] {
      warm_pass(&tracer, &tally, nullptr);
      ++traced_passes;
    });
  } else {
    for (std::size_t i = 0; i < in.groups.size(); ++i) {
      replay_and_check(i, first_pass[i], nullptr, nullptr);
    }
  }
  double pass_sim_s = 0.0;
  for (const double sim_s : group_sim_s) pass_sim_s += sim_s;
  untraced.sim_s = pass_sim_s * untraced_passes;
  traced.sim_s = pass_sim_s * traced_passes;

  if (args.trace) {
    report_layers(report, tracer, tally, (untraced.rate() / traced.rate() - 1.0) * 100.0);
    tracer.write(args.out_dir + "/pressure_sweep-seed" + std::to_string(args.seed) +
                 ".spans.jsonl");
  } else {
    report_end_to_end(report, setup_s, untraced, unit_ms, kSweepTail, in.groups.size(), rss);
  }
  check_repeats(report, "pressure_sweep", pass_digests);
  report.digest("pressure_sweep.pass", pass_digests.front());
  add_sweep_model(report, in, first_pass);
}

// =============================================================================
// fleet_study
// =============================================================================

constexpr double kFleetTail = 95;

fleet::FleetSpec make_fleet_spec(std::uint64_t seed, bool tiny) {
  fleet::FleetSpec spec;  // default session config
  spec.seed = seed;
  spec.devices = tiny ? 512 : 8192;
  return spec;
}

/// Simulated seconds a cold device-session advances: its (family, cohort)
/// template (boot + preload + warmup idle) plus session_s.
double fleet_pass_sim_s(const fleet::FleetSpec& spec) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> template_s;
  double total = 0.0;
  for (std::uint64_t d = 0; d < spec.devices; ++d) {
    const fleet::FleetDevice dev = fleet::sample_fleet_device(d, spec.seed);
    const auto key = std::make_pair(dev.family, dev.cohort);
    auto it = template_s.find(key);
    if (it == template_s.end()) {
      fleet::FleetWorld world(study::fleet_families().at(dev.family).profile(), spec.mem_policy);
      fleet::prepare_world(world, dev.family, dev.cohort, spec);
      it = template_s.emplace(key, sim::to_seconds(world.engine.now())).first;
    }
    total += it->second + spec.session_s;
  }
  return total;
}

/// One shard replayed device by device with spans around each layer
/// call; returns the shard payload run_fleet_unit would produce.
std::string traced_fleet_shard(const fleet::FleetSpec& spec, std::uint64_t unit, Tracer& tracer,
                               Tally& tally) {
  Scope span(&tracer, "fleet.shard", unit);
  const std::uint64_t first = unit * spec.shard_size;
  const std::uint64_t last = std::min(first + spec.shard_size, spec.devices);
  fleet::FleetAggregate shard;
  double respawns = 0.0;
  for (std::uint64_t d = first; d < last; ++d) {
    const fleet::FleetDevice dev = fleet::sample_fleet_device(d, spec.seed);
    fleet::FleetWorld world(study::fleet_families().at(dev.family).profile(), spec.mem_policy);
    {
      Scope s(&tracer, "fleet.prepare_world", unit);
      fleet::prepare_world(world, dev.family, dev.cohort, spec);
    }
    fleet::DeviceObservations obs;
    {
      Scope s(&tracer, "fleet.drive_session", unit);
      obs = fleet::drive_session(world, dev, spec);
    }
    respawns += static_cast<double>(world.am.respawn_count());
    {
      Scope s(&tracer, "stats.fold", unit);
      shard.fold(obs, spec);
    }
  }
  tally.add("proc.respawns", respawns);
  std::string payload = shard.encode();
  tally.add("fleet.payload_bytes", static_cast<double>(payload.size()));
  return payload;
}

void add_fleet_model(Report& report, const fleet::FleetAggregate& agg) {
  const double hours = static_cast<double>(agg.session_seconds) / 3600.0;
  double signals = 0.0;
  double level_s = 0.0;
  for (int l = 0; l < fleet::kLevels; ++l) {
    signals += static_cast<double>(agg.signals[static_cast<std::size_t>(l)]);
    level_s += static_cast<double>(agg.seconds_in_level[static_cast<std::size_t>(l)]);
  }
  std::uint64_t transitions = 0;
  for (const auto& row : agg.transitions) {
    for (const std::uint64_t t : row) transitions += t;
  }
  report.model.emplace_back("fleet_study devices", fmt("%.0f", static_cast<double>(agg.device_count)));
  report.model.emplace_back("fleet_study fig2 RAM utilization p50 / p90",
                            fmt("%.3f / %.3f", agg.utilization_quantiles.quantile(0.5),
                                agg.utilization_quantiles.quantile(0.9)));
  report.model.emplace_back("fleet_study fig3 trim signals per device-hour",
                            fmt("%.2f", hours > 0.0 ? signals / hours : 0.0));
  for (int l = 0; l < fleet::kLevels; ++l) {
    const auto i = static_cast<std::size_t>(l);
    const char* name = level_key(static_cast<mem::PressureLevel>(l));
    report.model.emplace_back(
        std::string("fleet_study fig4 time in ") + name,
        fmt("%.2f%%", level_s > 0.0 ? 100.0 * static_cast<double>(agg.seconds_in_level[i]) / level_s
                                    : 0.0));
    report.model.emplace_back(std::string("fleet_study fig5 available MB in ") + name,
                              fmt("mean %.1f over %.0f samples", agg.available_acc[i].mean(),
                                  static_cast<double>(agg.available_acc[i].count())));
    report.model.emplace_back(std::string("fleet_study fig6 dwell p50 s in ") + name,
                              agg.dwell[i].count() > 0 ? fmt("%.1f", agg.dwell[i].quantile(0.5))
                                                       : std::string("n/a"));
  }
  report.model.emplace_back("fleet_study fig6 level transitions",
                            fmt("%.0f", static_cast<double>(transitions)));
}

void run_fleet_study(const Args& args, Report& report) {
  fleet::FleetSpec spec;
  double pass_sim_s = 0.0;
  const double setup_s = median_setup(kSetupReps, [&] {
    spec = make_fleet_spec(args.seed, args.tiny);
    pass_sim_s = fleet_pass_sim_s(spec);
    fleet::run_fleet_unit(spec, 0, false);
  });
  const std::uint64_t shards = fleet::fleet_total_units(spec);

  std::vector<double> unit_ms;
  std::vector<std::uint64_t> pass_digests;
  fleet::FleetAggregate first_aggregate;

  const auto untraced_pass = [&] {
    fleet::FleetRunOptions opts;  // serial cold lane
    auto last = Clock::now();
    opts.progress = [&](std::uint64_t, std::uint64_t) {
      const auto now = Clock::now();
      unit_ms.push_back(seconds_between(last, now) * 1e3);
      last = now;
    };
    report.units_attempted += shards;
    const fleet::FleetRunResult result = fleet::run_fleet(spec, opts);
    if (!result.complete) report.unit_failed("fleet_study: run_fleet did not complete");
    if (pass_digests.empty()) first_aggregate = result.aggregate;
    pass_digests.push_back(result.digest);
  };

  Window untraced;
  int untraced_passes = 0;
  const int min_passes = args.trace ? 1 : passes_for_tail(kFleetTail, shards);
  untraced.host_s = run_passes(args.trace ? args.seconds / 2 : args.seconds, min_passes, [&] {
    untraced_pass();
    ++untraced_passes;
  });
  untraced.sim_s = pass_sim_s * untraced_passes;
  const double rss = peak_rss_mb();

  if (args.trace) {
    Tracer tracer;
    Tally tally;
    Window traced;
    int traced_passes = 0;
    traced.host_s = run_passes(args.seconds / 2, 1, [&] {
      snapshot::StateHash hash;
      fleet::FleetAggregate merged;
      for (std::uint64_t unit = 0; unit < shards; ++unit) {
        Scope root(&tracer, "bench.unit", unit);
        ++report.units_attempted;
        const std::string payload = traced_fleet_shard(spec, unit, tracer, tally);
        hash.mix(unit);
        hash.mix_bytes(payload);
        Scope s(&tracer, "stats.merge", unit);
        merged.merge(fleet::FleetAggregate::decode(payload));
      }
      pass_digests.push_back(hash.value());
      ++traced_passes;
    });
    traced.sim_s = pass_sim_s * traced_passes;
    report_layers(report, tracer, tally, (untraced.rate() / traced.rate() - 1.0) * 100.0);
    tracer.write(args.out_dir + "/fleet_study-seed" + std::to_string(args.seed) + ".spans.jsonl");
  } else {
    report_end_to_end(report, setup_s, untraced, unit_ms, kFleetTail, shards, rss);
  }
  check_repeats(report, "fleet_study", pass_digests);
  report.digest("fleet_study.run_fleet", pass_digests.front());
  report.fleet_cli_args = {"run", "--devices", std::to_string(spec.devices), "--seed",
                           std::to_string(spec.seed)};
  add_fleet_model(report, first_aggregate);
}

// =============================================================================
// net_contention
// =============================================================================

constexpr double kContentionTail = 90;
const std::vector<std::string> kContentionCcs = {"cubic", "bbr", "c4"};

struct ContentionUnit {
  std::size_t cc = 0;
  scenario::ScenarioSpec spec;
};

std::vector<ContentionUnit> make_contention_units(std::uint64_t seed, bool tiny) {
  std::vector<ContentionUnit> units;
  const int seeds = tiny ? 1 : 48;
  for (int k = 0; k < seeds; ++k) {
    const std::uint64_t world = stats::derive_seed(seed, 0x4E45u + static_cast<std::uint64_t>(k));
    for (std::size_t c = 0; c < kContentionCcs.size(); ++c) {
      scenario::ScenarioSpec spec = scenario::single_video(
          "fig16", 480, 30, tiny ? 6 : 30, mem::PressureLevel::Normal, world);
      spec.net.cc = kContentionCcs[c];
      scenario::CrossTrafficWorkloadSpec cross;
      cross.bulk_flows = 1;
      cross.onoff_flows = 1;
      cross.on_s = 2;
      cross.off_s = 1;
      cross.chunk_bytes = 512 * 1024;
      cross.seed = stats::derive_seed(world, 0x43u);
      spec.workloads.emplace_back(cross);
      units.push_back(ContentionUnit{c, std::move(spec)});
    }
  }
  return units;
}

void run_net_contention(const Args& args, Report& report) {
  std::vector<ContentionUnit> units;
  const double setup_s = median_setup(kSetupReps, [&] {
    units = make_contention_units(args.seed, args.tiny);
    drive_scenario(units.front().spec, std::nullopt, nullptr, nullptr, 0, nullptr, true);
  });

  std::vector<double> unit_ms;
  std::vector<std::uint64_t> pass_digests;
  std::vector<double> qdelay_total(kContentionCcs.size(), 0.0);
  std::vector<std::uint64_t> qdelay_samples(kContentionCcs.size(), 0);
  std::vector<qoe::RunAggregate> outcomes(kContentionCcs.size());

  const auto pass = [&](Tracer* tracer, Tally* tally, std::vector<double>* times) {
    snapshot::StateHash hash;
    double sim_s = 0.0;
    const bool first = pass_digests.empty();
    for (std::size_t i = 0; i < units.size(); ++i) {
      Scope root(tracer, "bench.unit", i);
      ++report.units_attempted;
      const auto t0 = Clock::now();
      try {
        const Driven d =
            drive_scenario(units[i].spec, std::nullopt, tracer, tally, i, nullptr, true);
        if (times != nullptr) times->push_back(seconds_between(t0, Clock::now()) * 1e3);
        sim_s += d.end_sim_s;
        hash.mix(d.state_digest);
        if (first) {
          const std::size_t c = units[i].cc;
          qdelay_total[c] += d.qdelay_total_us;
          qdelay_samples[c] += d.qdelay_samples;
          outcomes[c].add(d.result.sessions.at(0).result.outcome);
        }
      } catch (const std::exception& e) {
        report.unit_failed("net_contention unit " + std::to_string(i) + ": " + e.what());
      }
    }
    pass_digests.push_back(hash.value());
    return sim_s;
  };

  Window untraced;
  const int min_passes = args.trace ? 1 : passes_for_tail(kContentionTail, units.size());
  untraced.host_s = run_passes(args.trace ? args.seconds / 2 : args.seconds, min_passes,
                               [&] { untraced.sim_s += pass(nullptr, nullptr, &unit_ms); });
  const double rss = peak_rss_mb();

  if (args.trace) {
    Tracer tracer;
    Tally tally;
    Window traced;
    traced.host_s =
        run_passes(args.seconds / 2, 1, [&] { traced.sim_s += pass(&tracer, &tally, nullptr); });
    report_layers(report, tracer, tally, (untraced.rate() / traced.rate() - 1.0) * 100.0);
    tracer.write(args.out_dir + "/net_contention-seed" + std::to_string(args.seed) +
                 ".spans.jsonl");
  } else {
    report_end_to_end(report, setup_s, untraced, unit_ms, kContentionTail, units.size(), rss);
  }
  check_repeats(report, "net_contention", pass_digests);
  report.digest("net_contention.pass", pass_digests.front());
  for (std::size_t c = 0; c < kContentionCcs.size(); ++c) {
    const double mean_us =
        qdelay_samples[c] ? qdelay_total[c] / static_cast<double>(qdelay_samples[c]) : 0.0;
    report.model.emplace_back("net_contention " + kContentionCcs[c],
                              fmt("queuing delay mean %.1f ms", mean_us / 1e3) +
                                  fmt("  drop %.2f%%  rebuffers %.2f",
                                      outcomes[c].drop_rate().mean * 100.0,
                                      outcomes[c].rebuffer_events().mean));
  }
}

// =============================================================================
// fuzz_campaign
// =============================================================================

constexpr int kFuzzProcs = 2;
constexpr double kFuzzTail = 95;

check::FuzzOptions make_fuzz_options(std::uint64_t seed, bool tiny) {
  check::FuzzOptions opts;
  opts.seed = seed;
  opts.runs = tiny ? 8 : 160;
  opts.jobs = 1;
  opts.generator.policies = mem::mem_policy_names();
  opts.generator.ccs = net::cc_names();
  // No pressure-hog workloads and no organic churn: an ariadne world with
  // a hog under Low/Critical pressure costs seconds of host time where a
  // typical world costs tens of milliseconds (README.md, "Findings"), so
  // a pass's figures would hinge on whether its seed drew one. One
  // 8-second session per world likewise keeps a pass's cost from
  // depending on how many sessions of what length its seed drew.
  opts.generator.pressure_workload_probability = 0.0;
  opts.generator.organic_probability = 0.0;
  opts.generator.max_videos = 1;
  opts.generator.min_duration_s = 8;
  opts.generator.max_duration_s = 8;
  return opts;  // check defaults: full oracle suite + run-twice + restore
}

struct CampaignPass {
  campaign::FuzzCampaignResult result;
  std::vector<check::RunRecord> records;
  double wall_s = 0.0;
  double sim_s = 0.0;  // Σ slices of every run's checked primary execution
  std::uint64_t checkpoint_bytes = 0;
};

CampaignPass run_campaign_pass(const check::FuzzOptions& opts, const std::string& state_path,
                               std::vector<double>* times) {
  std::filesystem::remove(state_path);
  campaign::CampaignOptions copts;
  copts.procs = kFuzzProcs;
  copts.state_path = state_path;
  auto last = Clock::now();
  if (times != nullptr) {
    copts.progress = [&](std::uint64_t, std::uint64_t) {
      const auto now = Clock::now();
      times->push_back(seconds_between(last, now) * 1e3);
      last = now;
    };
  }
  CampaignPass pass;
  const auto t0 = Clock::now();
  pass.result = campaign::run_fuzz_campaign(opts, copts);
  pass.wall_s = seconds_between(t0, Clock::now());
  std::error_code ec;
  const auto size = std::filesystem::file_size(state_path, ec);
  pass.checkpoint_bytes = ec ? 0 : static_cast<std::uint64_t>(size);
  const campaign::CampaignResult& c = pass.result.campaign;
  for (std::size_t u = 0; u < c.payloads.size(); ++u) {
    if (u < c.completed.size() && !c.completed[u]) continue;
    snapshot::ByteReader r(c.payloads[u]);
    pass.records.push_back(check::decode_run_record(r));
    pass.sim_s += pass.records.back().slices;
  }
  return pass;
}

/// Count a campaign pass's failed runs and shards against the report.
void score_campaign(Report& report, const CampaignPass& pass, int runs) {
  report.units_attempted += static_cast<std::uint64_t>(runs);
  if (!pass.result.campaign.complete) report.unit_failed("fuzz_campaign: campaign incomplete");
  for (const campaign::ShardOutcome& shard : pass.result.campaign.shards) {
    if (shard.status != campaign::ShardStatus::Completed) {
      report.unit_failed("fuzz_campaign shard " + std::to_string(shard.first_unit) + ": " +
                         shard.error);
    }
  }
  for (const check::FuzzFailure& f : pass.result.summary.failures) {
    report.unit_failed("fuzz_campaign run " + std::to_string(f.run) + ": " + f.violation.oracle +
                       " " + f.violation.detail);
  }
}

/// One generated world walked slice by slice with a state digest after
/// every slice and a full save at every slice.
void traced_snapshot_walk(const scenario::ScenarioSpec& spec, Tracer& tracer, Tally& tally,
                          std::uint64_t unit) {
  scenario::ScenarioDriver driver(spec);
  {
    Scope s(&tracer, "scenario.prepare", unit);
    driver.prepare();
  }
  {
    Scope s(&tracer, "scenario.advance", unit);
    driver.start();
    while (driver.advance_slice()) {
      {
        Scope d(&tracer, "snapshot.digest", unit);
        driver.state_digest();
      }
      std::size_t bytes = 0;
      {
        Scope v(&tracer, "snapshot.save", unit);
        snapshot::Snapshot snap;
        driver.save_state(snap);
        bytes = snap.serialize().size();
      }
      tally.add("snapshot.bytes", static_cast<double>(bytes));
    }
  }
  Scope s(&tracer, "scenario.finalize", unit);
  driver.finalize();
}

void run_fuzz_campaign(const Args& args, Report& report) {
  check::FuzzOptions opts;
  const std::string state_path = args.out_dir + "/fuzz_campaign.state.mvqs";
  const double setup_s = median_setup(kSetupReps, [&] {
    opts = make_fuzz_options(args.seed, args.tiny);
    // The warm-up campaign is the same for every seed, so set-up time
    // does not depend on which worlds the seed draws first.
    check::FuzzOptions warm = make_fuzz_options(0, true);
    warm.runs = 4;
    run_campaign_pass(warm, state_path, nullptr);
  });

  std::vector<double> unit_ms;
  std::vector<std::uint64_t> pass_digests;

  Window untraced;
  const int min_passes =
      args.trace ? 1 : passes_for_tail(kFuzzTail, static_cast<std::size_t>(opts.runs));
  untraced.host_s = run_passes(args.trace ? args.seconds / 2 : args.seconds, min_passes, [&] {
    const CampaignPass pass = run_campaign_pass(opts, state_path, &unit_ms);
    score_campaign(report, pass, opts.runs);
    pass_digests.push_back(pass.result.summary.digest);
    untraced.sim_s += pass.sim_s;
  });
  const double rss = peak_rss_mb();

  if (args.trace) {
    Tracer tracer;
    Tally tally;
    Window traced;
    traced.host_s = run_passes(args.seconds / 2, 1, [&] {
      CampaignPass pass;
      {
        Scope s(&tracer, "campaign.run", 0);
        pass = run_campaign_pass(opts, state_path, nullptr);
      }
      score_campaign(report, pass, opts.runs);
      pass_digests.push_back(pass.result.summary.digest);
      traced.sim_s += pass.sim_s;
      int attempts = 0;
      int failed_shards = 0;
      for (const campaign::ShardOutcome& shard : pass.result.campaign.shards) {
        attempts += shard.attempts;
        failed_shards += shard.status == campaign::ShardStatus::Completed ? 0 : 1;
      }
      tally.add("campaign.attempts", attempts);
      tally.add("campaign.failed_shards", failed_shards);
      tally.add("campaign.checkpoint_bytes", static_cast<double>(pass.checkpoint_bytes));
      tally.add("campaign.worker_peak_rss_mb", worker_peak_rss_mb());

      check::FuzzOptions primary = opts;
      primary.check.meta_determinism = false;
      double serial_s = 0.0;
      for (int i = 0; i < opts.runs; ++i) {
        const auto index = static_cast<std::uint64_t>(i);
        Scope root(&tracer, "bench.unit", index);
        scenario::ScenarioSpec spec;
        {
          Scope s(&tracer, "check.generate", index);
          spec = check::generate_scenario(stats::derive_seed(opts.seed, index + 1),
                                          opts.generator);
        }
        check::RunRecord base;
        {
          Scope s(&tracer, "check.primary", index);
          base = check::execute_fuzz_run(primary, index);
        }
        const auto t0 = Clock::now();
        check::RunRecord full;
        {
          Scope s(&tracer, "check.meta", index);
          full = check::execute_fuzz_run(opts, index);
        }
        serial_s += seconds_between(t0, Clock::now());
        tally.add("check.violations", full.report_ok && full.harness_ok ? 0.0 : 1.0);
        const bool same = i < static_cast<int>(pass.records.size()) &&
                          full.final_digest == pass.records[static_cast<std::size_t>(i)].final_digest &&
                          full.report_ok == pass.records[static_cast<std::size_t>(i)].report_ok &&
                          full.slices == pass.records[static_cast<std::size_t>(i)].slices &&
                          base.final_digest == full.final_digest;
        report.check("fuzz_campaign traced run " + std::to_string(i) + " == campaign record", same,
                     hex64(full.final_digest));
        traced_snapshot_walk(spec, tracer, tally, index);
      }
      tally.add("campaign.efficiency", serial_s / (kFuzzProcs * pass.wall_s));
    });
    report_layers(report, tracer, tally, (untraced.rate() / traced.rate() - 1.0) * 100.0);
    tracer.write(args.out_dir + "/fuzz_campaign-seed" + std::to_string(args.seed) +
                 ".spans.jsonl");
  } else {
    report_end_to_end(report, setup_s, untraced, unit_ms, kFuzzTail,
                      static_cast<std::size_t>(opts.runs), rss);
    report.metrics.back().note += " (coordinator; workers in campaign.worker_peak_rss_mb)";
    report.metrics[report.metrics.size() - 2].note += " (interval between unit results landing)";
    report.metrics[report.metrics.size() - 3].note += " (interval between unit results landing)";
  }
  check_repeats(report, "fuzz_campaign", pass_digests);

  // The multi-process campaign must agree with the serial in-process fuzzer.
  const check::FuzzSummary serial = check::run_fuzz(opts);
  report.check("fuzz_campaign digest == serial run_fuzz", serial.digest == pass_digests.front(),
               hex64(pass_digests.front()) + " vs " + hex64(serial.digest));
  report.digest("fuzz_campaign.campaign", pass_digests.front());
  report.digest("fuzz_campaign.run_fuzz", serial.digest);
  report.model.emplace_back("fuzz_campaign runs per pass / oracle failures",
                            fmt("%.0f / %.0f", opts.runs, serial.failed));
  std::filesystem::remove(state_path);
}

int usage() {
  std::fprintf(stderr,
               "usage: mvbench --workload pressure_sweep|fleet_study|net_contention|fuzz_campaign\n"
               "               --seed N --seconds S [--trace 0|1] [--tiny] [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) {
  using namespace mvbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else {
      return usage();
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  Report report;
  try {
    if (args.workload == "pressure_sweep") {
      run_pressure_sweep(args, report);
    } else if (args.workload == "fleet_study") {
      run_fleet_study(args, report);
    } else if (args.workload == "net_contention") {
      run_net_contention(args, report);
    } else if (args.workload == "fuzz_campaign") {
      run_fuzz_campaign(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.unit_failed(std::string("harness exception: ") + e.what());
  }
  std::printf("%s\n", report.json(args.workload, args.seed, args.trace).c_str());
  return report.failed() == 0 ? 0 : 1;
}
