// mvqoe_policy — the "what if Android did X" reclaim/kill policy lab.
//
//   mvqoe_policy compare [--policies p1,p2,...] [--family F] [--duration S]
//                        [--organic N] [--states s1,s2,...] [--fps n1,n2,...]
//                        [--heights h1,h2,...] [--runs N] [--seed N]
//                        [--procs N] [--group-workers N] [--state FILE]
//                        [--shard-size N] [--retries N] [--heartbeat-ms N]
//                        [--backoff-ms N] [--out NAME] [--progress]
//       Run the SAME warm-start sweep grid once per memory policy
//       (DESIGN.md §16): every policy lane boots identically-seeded
//       device worlds (the sweep_group_seed scheme is policy-blind) and
//       differs only in how its reclaim/kill policy responds, so the
//       per-lane QoE deltas are attributable to the policy alone. Runs
//       as a supervised multi-process campaign; one campaign unit is one
//       (policy, state, run) warm-sweep group. The summary digest is
//       invariant to --procs/--group-workers and to kill-and-resume.
//       --out writes one BENCH_<NAME>_<policy>.json grid per lane.
//
//   mvqoe_policy compare --resume FILE [--procs N] [--group-workers N]
//       Resume a killed compare from its checkpoint (a checkpoint
//       recorded under a different grid or policy list is refused); the
//       digest and lane output are byte-identical to an uninterrupted
//       run.
//
//   mvqoe_policy list
//       Print the registered policy names.
//
// Exit status: 0 complete, 2 usage or I/O errors, 3 campaign degraded
// (a shard exhausted its retry budget), 128+signo interrupted with the
// checkpoint flushed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "campaign/policy_campaign.hpp"
#include "campaign/progress.hpp"
#include "campaign/signal.hpp"
#include "runner/scenario_batch.hpp"

namespace {

using namespace mvqoe;

int usage() {
  std::fprintf(stderr,
               "usage: mvqoe_policy compare [--policies p1,p2,...] [--family F]\n"
               "                            [--duration S] [--organic N]\n"
               "                            [--states s1,s2,...] [--fps n1,n2,...]\n"
               "                            [--heights h1,h2,...] [--runs N] [--seed N]\n"
               "                            [--procs N] [--group-workers N] [--state FILE]\n"
               "                            [--shard-size N] [--retries N]\n"
               "                            [--heartbeat-ms N] [--backoff-ms N]\n"
               "                            [--out NAME] [--progress]\n"
               "       mvqoe_policy compare --resume FILE [--procs N] [--group-workers N]\n"
               "       mvqoe_policy list\n"
               "states: normal moderate low critical\n"
               "policies: baseline swam ariadne partitioned (default: all)\n");
  return 2;
}

bool parse_state(const std::string& s, mem::PressureLevel& out) {
  if (s == "normal") out = mem::PressureLevel::Normal;
  else if (s == "moderate") out = mem::PressureLevel::Moderate;
  else if (s == "low") out = mem::PressureLevel::Low;
  else if (s == "critical") out = mem::PressureLevel::Critical;
  else return false;
  return true;
}

const char* state_name(mem::PressureLevel state) {
  switch (state) {
    case mem::PressureLevel::Normal: return "normal";
    case mem::PressureLevel::Moderate: return "moderate";
    case mem::PressureLevel::Low: return "low";
    case mem::PressureLevel::Critical: return "critical";
  }
  return "?";
}

std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(value.substr(start));
      break;
    }
    out.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

struct Args {
  campaign::PolicyCompareSpec spec;
  int procs = 1;
  std::string state_path;
  std::string resume_path;
  int shard_size = 1;  // one (policy, state, run) group per shard
  int retries = 3;
  int heartbeat_ms = 120000;
  int backoff_ms = 100;
  int kill_after_checkpoints = 0;
  std::int64_t abort_unit = -1;
  int abort_attempts = 1;
  std::string out_name;
  bool progress = false;
  bool ok = true;
};

Args parse_args(int argc, char** argv) {
  Args args;
  // Compact compare defaults: the policy axis is the point, the grid is
  // one representative cell ladder.
  args.spec.base.duration_s = 12;
  args.spec.base.states = {mem::PressureLevel::Low};
  args.spec.base.fps = {30};
  args.spec.base.heights = {480};
  for (const std::string& name : mem::mem_policy_names()) {
    args.spec.policies.push_back({name, {}});
  }
  const auto value = [&](int& i) -> const char* {
    const char* eq = std::strchr(argv[i], '=');
    if (eq != nullptr) return eq + 1;
    if (i + 1 >= argc) {
      args.ok = false;
      return "";
    }
    return argv[++i];
  };
  const auto is_flag = [&](int i, const char* name) {
    const std::size_t len = std::strlen(name);
    return std::strncmp(argv[i], name, len) == 0 && (argv[i][len] == '\0' || argv[i][len] == '=');
  };
  for (int i = 2; i < argc && args.ok; ++i) {
    if (is_flag(i, "--policies")) {
      args.spec.policies.clear();
      for (const std::string& name : split_csv(value(i))) {
        if (name.empty()) {
          args.ok = false;
          break;
        }
        args.spec.policies.push_back({name, {}});
      }
      if (args.spec.policies.empty()) args.ok = false;
    } else if (is_flag(i, "--family")) {
      args.spec.base.family = value(i);
    } else if (is_flag(i, "--duration")) {
      args.spec.base.duration_s = std::atoi(value(i));
    } else if (is_flag(i, "--organic")) {
      args.spec.base.organic_apps = std::atoi(value(i));
    } else if (is_flag(i, "--states")) {
      args.spec.base.states.clear();
      for (const std::string& name : split_csv(value(i))) {
        mem::PressureLevel state{};
        if (!parse_state(name, state)) {
          args.ok = false;
          break;
        }
        args.spec.base.states.push_back(state);
      }
    } else if (is_flag(i, "--fps")) {
      args.spec.base.fps.clear();
      for (const std::string& f : split_csv(value(i))) {
        args.spec.base.fps.push_back(std::atoi(f.c_str()));
      }
    } else if (is_flag(i, "--heights")) {
      args.spec.base.heights.clear();
      for (const std::string& h : split_csv(value(i))) {
        args.spec.base.heights.push_back(std::atoi(h.c_str()));
      }
    } else if (is_flag(i, "--runs")) {
      args.spec.base.runs = std::atoi(value(i));
    } else if (is_flag(i, "--seed")) {
      args.spec.base.seed = std::strtoull(value(i), nullptr, 0);
    } else if (is_flag(i, "--procs")) {
      args.procs = std::atoi(value(i));
    } else if (is_flag(i, "--group-workers")) {
      args.spec.base.group_workers = std::atoi(value(i));
    } else if (is_flag(i, "--state")) {
      args.state_path = value(i);
    } else if (is_flag(i, "--resume")) {
      args.resume_path = value(i);
    } else if (is_flag(i, "--shard-size")) {
      args.shard_size = std::atoi(value(i));
    } else if (is_flag(i, "--retries")) {
      args.retries = std::atoi(value(i));
    } else if (is_flag(i, "--heartbeat-ms")) {
      args.heartbeat_ms = std::atoi(value(i));
    } else if (is_flag(i, "--backoff-ms")) {
      args.backoff_ms = std::atoi(value(i));
    } else if (is_flag(i, "--kill-after-checkpoints")) {
      args.kill_after_checkpoints = std::atoi(value(i));
    } else if (is_flag(i, "--abort-unit")) {
      args.abort_unit = std::atoll(value(i));
    } else if (is_flag(i, "--abort-attempts")) {
      args.abort_attempts = std::atoi(value(i));
    } else if (is_flag(i, "--out")) {
      args.out_name = value(i);
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      args.progress = true;
    } else {
      args.ok = false;
    }
  }
  if (args.procs < 1 || args.shard_size < 1 || args.retries < 1 || args.heartbeat_ms < 1 ||
      args.backoff_ms < 0) {
    args.ok = false;
  }
  if (!args.state_path.empty() && !args.resume_path.empty()) args.ok = false;
  return args;
}

/// One deterministic line per (lane, state): the compare's readable
/// output, aggregated across the state's (fps, height) cells.
void print_lane(const campaign::PolicyLane& lane,
                const std::vector<mem::PressureLevel>& states, std::size_t cells_per_state) {
  for (std::size_t s = 0; s < states.size(); ++s) {
    qoe::RunAggregate rollup;
    std::size_t failures = 0;
    for (std::size_t c = 0; c < cells_per_state; ++c) {
      const runner::SweepCellResult& cell = lane.cells[s * cells_per_state + c];
      for (const qoe::RunOutcome& outcome : cell.aggregate.outcomes()) rollup.add(outcome);
      failures += cell.failures;
    }
    const stats::MeanCi drop = rollup.drop_rate();
    const stats::MeanCi rebuffers = rollup.rebuffer_events();
    const stats::MeanCi peak = rollup.peak_pss_mb();
    std::printf("policy=%s state=%s runs=%zu drop=%.4f%%+-%.4f crash=%.2f%% relaunch=%.2f%% "
                "rebuffers=%.3f peak_pss=%.2fMB failures=%zu\n",
                lane.policy.name.c_str(), state_name(states[s]), rollup.runs(),
                drop.mean * 100.0, drop.ci95 * 100.0, rollup.crash_rate_percent(),
                rollup.relaunch_rate_percent(), rebuffers.mean, peak.mean, failures);
  }
}

int cmd_compare(const Args& args) {
  campaign::PolicyCompareSpec spec = args.spec;
  if (!args.resume_path.empty()) {
    const int group_workers = spec.base.group_workers;
    spec = campaign::load_policy_resume_config(args.resume_path);
    spec.base.group_workers = group_workers;
    std::printf("resume: %s (family=%s %zu policies x %zu states, %d run(s))\n",
                args.resume_path.c_str(), spec.base.family.c_str(), spec.policies.size(),
                spec.base.states.size(), spec.base.runs);
  }

  campaign::CampaignOptions copts;
  copts.procs = args.procs;
  copts.shard_size = static_cast<std::size_t>(args.shard_size);
  copts.max_attempts = args.retries;
  copts.heartbeat_timeout_ms = args.heartbeat_ms;
  copts.backoff_ms = args.backoff_ms;
  copts.state_path = args.resume_path.empty() ? args.state_path : args.resume_path;
  copts.resume = !args.resume_path.empty();
  copts.hooks.abort_unit = args.abort_unit;
  copts.hooks.abort_attempts = args.abort_attempts;
  copts.hooks.kill_after_checkpoints = args.kill_after_checkpoints;

  campaign::InterruptGuard guard;
  copts.interrupt = guard.flag();

  campaign::ProgressMeter meter("groups");
  if (args.progress) {
    copts.progress = [&meter](std::uint64_t done, std::uint64_t total_units) {
      meter.update(done, total_units);
    };
  }

  const campaign::PolicyCompareResult result = campaign::run_policy_compare(spec, copts);
  meter.finish();
  const std::uint64_t total = campaign::policy_total_units(spec);

  if (result.campaign.units_from_checkpoint > 0) {
    std::printf("resumed: %llu/%llu groups from checkpoint, %llu executed\n",
                static_cast<unsigned long long>(result.campaign.units_from_checkpoint),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(result.campaign.units_done -
                                                result.campaign.units_from_checkpoint));
  }
  for (const campaign::ShardOutcome& shard : result.campaign.shards) {
    if (shard.status == campaign::ShardStatus::Failed) {
      std::printf("shard groups [%llu..%llu) FAILED after %d attempts: %s\n",
                  static_cast<unsigned long long>(shard.first_unit),
                  static_cast<unsigned long long>(shard.first_unit + shard.unit_count),
                  shard.attempts, shard.error.c_str());
    } else if (shard.attempts > 1) {
      std::printf("shard groups [%llu..%llu) recovered on attempt %d\n",
                  static_cast<unsigned long long>(shard.first_unit),
                  static_cast<unsigned long long>(shard.first_unit + shard.unit_count),
                  shard.attempts);
    }
  }

  if (result.campaign.interrupted) {
    std::printf("interrupted by signal %d: %llu/%llu groups done, checkpoint %s\n",
                guard.signal_number(),
                static_cast<unsigned long long>(result.campaign.units_done),
                static_cast<unsigned long long>(total),
                copts.state_path.empty() ? "disabled (--state not set)"
                                         : ("flushed to " + copts.state_path).c_str());
    std::fflush(stdout);
    return guard.exit_code();
  }

  const std::size_t cells_per_state = spec.base.fps.size() * spec.base.heights.size();
  for (const campaign::PolicyLane& lane : result.lanes) {
    print_lane(lane, spec.base.states, cells_per_state);
  }
  std::printf("policy compare: %zu policies x %zu cells x %d run(s), %llu/%llu groups, "
              "procs=%d digest=%016llx\n",
              spec.policies.size(), cells_per_state * spec.base.states.size(), spec.base.runs,
              static_cast<unsigned long long>(result.campaign.units_done),
              static_cast<unsigned long long>(total), result.campaign.procs_used,
              static_cast<unsigned long long>(result.digest));
  if (!args.out_name.empty()) {
    for (const campaign::PolicyLane& lane : result.lanes) {
      const std::string bench_name = args.out_name + "_" + lane.policy.name;
      // Lane JSON is a result artifact: it must be byte-identical across
      // serial, --procs and kill-and-resume, so it always records the
      // canonical serial form rather than this run's procs_used.
      const std::string path = runner::write_sweep_json(bench_name, lane.cells, spec.base.runs,
                                                        /*jobs_used=*/1, spec.base.seed);
      if (path.empty()) {
        std::fprintf(stderr, "mvqoe_policy: cannot write BENCH_%s.json\n", bench_name.c_str());
        return 2;
      }
      std::printf("machine-readable: %s\n", path.c_str());
    }
  }
  std::fflush(stdout);
  return result.campaign.complete ? 0 : 3;
}

int cmd_list() {
  for (const std::string& name : mem::mem_policy_names()) std::printf("%s\n", name.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "list") return cmd_list();
  const Args args = parse_args(argc, argv);
  if (!args.ok) return usage();
  try {
    if (command == "compare") return cmd_compare(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mvqoe_policy: %s\n", e.what());
    return 2;
  }
  return usage();
}
