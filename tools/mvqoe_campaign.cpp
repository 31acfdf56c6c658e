// mvqoe_campaign — crash-safe multi-process bench/sweep campaigns.
//
//   mvqoe_campaign sweep [--family F] [--duration S] [--organic N]
//                        [--states s1,s2,...] [--fps n1,n2,...]
//                        [--heights h1,h2,...] [--runs N] [--seed N]
//                        [--procs N] [--group-workers N] [--state FILE]
//                        [--shard-size N] [--retries N] [--heartbeat-ms N]
//                        [--backoff-ms N] [--out NAME]
//       Run a warm-start sweep grid (states x fps x heights, `runs`
//       repetitions per cell) as a supervised multi-process campaign
//       (DESIGN.md §13). One campaign unit is one (state, run) group:
//       the worker prepares the group's shared boot+pressure world once
//       and forks each (fps, height) cell's video phase from it — the
//       CoW warm-start machinery of runner/warm_sweep. Crashed or hung
//       workers are SIGKILLed and retried with exponential backoff;
//       with --state every completed group is checkpointed atomically.
//       --out writes the grid as BENCH_<NAME>.json (the same payload
//       runner::write_sweep_json produces, byte-identical to an
//       in-process run of the same grid).
//
//   mvqoe_campaign sweep --resume FILE [--procs N] [--group-workers N]
//       Resume a killed campaign: the grid is reconstructed from the
//       checkpoint (a checkpoint recorded under a different grid is
//       refused), only the missing groups run, and the digest and BENCH
//       json are byte-identical to an uninterrupted run.
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

#include "campaign/progress.hpp"
#include "campaign/signal.hpp"
#include "campaign/sweep_campaign.hpp"
#include "runner/scenario_batch.hpp"

namespace {

using namespace mvqoe;

int usage() {
  std::fprintf(stderr,
               "usage: mvqoe_campaign sweep [--family F] [--duration S] [--organic N]\n"
               "                            [--states s1,s2,...] [--fps n1,n2,...]\n"
               "                            [--heights h1,h2,...] [--runs N] [--seed N]\n"
               "                            [--policy NAME] [--cc NAME] [--procs N]\n"
               "                            [--group-workers N]\n"
               "                            [--state FILE] [--shard-size N] [--retries N]\n"
               "                            [--heartbeat-ms N] [--backoff-ms N] [--out NAME]\n"
               "                            [--progress]\n"
               "       mvqoe_campaign sweep --resume FILE [--procs N] [--group-workers N]\n"
               "states: normal moderate low critical\n"
               "--progress paints a done/total + units/sec + ETA line on stderr\n");
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
  campaign::SweepCampaignSpec spec;
  int procs = 1;
  std::string state_path;
  std::string resume_path;
  int shard_size = 1;  // one (state, run) group per shard by default
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
    if (is_flag(i, "--family")) {
      args.spec.family = value(i);
    } else if (is_flag(i, "--duration")) {
      args.spec.duration_s = std::atoi(value(i));
    } else if (is_flag(i, "--organic")) {
      args.spec.organic_apps = std::atoi(value(i));
    } else if (is_flag(i, "--states")) {
      args.spec.states.clear();
      for (const std::string& name : split_csv(value(i))) {
        mem::PressureLevel state{};
        if (!parse_state(name, state)) {
          args.ok = false;
          break;
        }
        args.spec.states.push_back(state);
      }
    } else if (is_flag(i, "--fps")) {
      args.spec.fps.clear();
      for (const std::string& f : split_csv(value(i))) args.spec.fps.push_back(std::atoi(f.c_str()));
    } else if (is_flag(i, "--heights")) {
      args.spec.heights.clear();
      for (const std::string& h : split_csv(value(i))) {
        args.spec.heights.push_back(std::atoi(h.c_str()));
      }
    } else if (is_flag(i, "--runs")) {
      args.spec.runs = std::atoi(value(i));
    } else if (is_flag(i, "--policy")) {
      args.spec.mem_policy.name = value(i);
    } else if (is_flag(i, "--cc")) {
      args.spec.net.cc = value(i);
    } else if (is_flag(i, "--seed")) {
      args.spec.seed = std::strtoull(value(i), nullptr, 0);
    } else if (is_flag(i, "--procs")) {
      args.procs = std::atoi(value(i));
    } else if (is_flag(i, "--group-workers")) {
      args.spec.group_workers = std::atoi(value(i));
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

int cmd_sweep(const Args& args) {
  campaign::SweepCampaignSpec spec = args.spec;
  if (!args.resume_path.empty()) {
    const int group_workers = spec.group_workers;
    spec = campaign::load_sweep_resume_config(args.resume_path);
    spec.group_workers = group_workers;
    std::printf("resume: %s (family=%s %zu states x %zu fps x %zu heights, %d run(s))\n",
                args.resume_path.c_str(), spec.family.c_str(), spec.states.size(),
                spec.fps.size(), spec.heights.size(), spec.runs);
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

  const campaign::SweepCampaignResult result = campaign::run_sweep_campaign(spec, copts);
  meter.finish();
  const std::uint64_t total = campaign::sweep_total_units(spec);

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

  std::printf("sweep campaign: %zu cells x %d run(s), %llu/%llu groups, procs=%d "
              "digest=%016llx\n",
              result.cells.size(), spec.runs,
              static_cast<unsigned long long>(result.campaign.units_done),
              static_cast<unsigned long long>(total), result.campaign.procs_used,
              static_cast<unsigned long long>(result.digest));
  if (!args.out_name.empty()) {
    const std::string path = runner::write_sweep_json(args.out_name, result.cells, spec.runs,
                                                      result.campaign.procs_used, spec.seed);
    if (path.empty()) {
      std::fprintf(stderr, "mvqoe_campaign: cannot write BENCH_%s.json\n",
                   args.out_name.c_str());
      return 2;
    }
    std::printf("machine-readable: %s\n", path.c_str());
  }
  std::fflush(stdout);
  return result.campaign.complete ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv);
  if (!args.ok) return usage();
  try {
    if (command == "sweep") return cmd_sweep(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mvqoe_campaign: %s\n", e.what());
    return 2;
  }
  return usage();
}
