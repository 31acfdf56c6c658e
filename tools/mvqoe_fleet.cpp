// mvqoe_fleet — million-device fleet simulation (DESIGN.md §15).
//
//   mvqoe_fleet run [--devices N] [--seed N] [--session-s S]
//                   [--policy NAME] [--cc NAME]
//                   [--sample-period S] [--warmup-s S] [--shard-size N]
//                   [--jobs N] [--procs N] [--state FILE]
//                   [--retries N] [--heartbeat-ms N]
//                   [--save FILE] [--report FILE] [--progress]
//       Drive `devices` simulated device-sessions sampled from the
//       study population model (device family x usage cohort), reduced
//       shard by shard into one streaming FleetAggregate — peak memory
//       is O(shard), not O(fleet). Every device rebuilds its
//       (family, cohort) world in-process. The report digest is
//       byte-identical across serial, --jobs N threads, --procs N
//       supervised worker processes and kill-and-resume. --save bundles
//       (config, aggregate) as an MVQS blob; --report writes the Figs 2-6
//       report JSON.
//
//   mvqoe_fleet resume FILE [--procs N] [--jobs N]
//                   [--save FILE] [--report FILE] [--progress]
//       Resume a killed run from its campaign checkpoint. The fleet
//       config is reconstructed from the blob (a checkpoint recorded
//       under a different config is refused); only missing shards run,
//       and the digest and report bytes match an uninterrupted run.
//
//   mvqoe_fleet report FILE [--out FILE]
//       Re-render the report JSON from a --save blob (stdout default).
//
// Exit status: 0 complete, 2 usage or I/O errors, 3 campaign degraded
// (a shard exhausted its retry budget), 128+signo interrupted with the
// checkpoint flushed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "campaign/progress.hpp"
#include "campaign/signal.hpp"
#include "fleet/runner.hpp"

namespace {

using namespace mvqoe;

int usage() {
  std::fprintf(stderr,
               "usage: mvqoe_fleet run [--devices N] [--seed N] [--session-s S]\n"
               "                       [--policy NAME] [--cc NAME]\n"
               "                       [--sample-period S] [--warmup-s S] [--shard-size N]\n"
               "                       [--jobs N] [--procs N] [--state FILE]\n"
               "                       [--retries N] [--heartbeat-ms N]\n"
               "                       [--save FILE] [--report FILE] [--progress]\n"
               "       mvqoe_fleet resume FILE [--procs N] [--jobs N]\n"
               "                       [--save FILE] [--report FILE] [--progress]\n"
               "       mvqoe_fleet report FILE [--out FILE]\n"
               "--progress paints a devices done/total + devices/sec + ETA line on stderr\n");
  return 2;
}

struct Args {
  fleet::FleetSpec spec;
  fleet::FleetRunOptions opts;
  std::string resume_path;
  std::string blob_path;  // `report` positional
  std::string save_path;
  std::string report_path;
  std::string out_path;
  bool progress = false;
  // Deterministic failure injection (tests; see campaign::TestHooks).
  int kill_after_checkpoints = 0;
  std::int64_t abort_unit = -1;
  int abort_attempts = 1;
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
  const std::string command = argv[1];
  int i = 2;
  if ((command == "resume" || command == "report") && i < argc && argv[i][0] != '-') {
    args.blob_path = argv[i++];
  }
  for (; i < argc && args.ok; ++i) {
    if (is_flag(i, "--devices")) {
      args.spec.devices = std::strtoull(value(i), nullptr, 0);
    } else if (is_flag(i, "--seed")) {
      args.spec.seed = std::strtoull(value(i), nullptr, 0);
    } else if (is_flag(i, "--session-s")) {
      args.spec.session_s = std::atoi(value(i));
    } else if (is_flag(i, "--policy")) {
      args.spec.mem_policy.name = value(i);
    } else if (is_flag(i, "--cc")) {
      args.spec.net.cc = value(i);
    } else if (is_flag(i, "--sample-period")) {
      args.spec.sample_period_s = std::atoi(value(i));
    } else if (is_flag(i, "--warmup-s")) {
      args.spec.warmup_s = std::atoi(value(i));
    } else if (is_flag(i, "--shard-size")) {
      args.spec.shard_size = std::strtoull(value(i), nullptr, 0);
    } else if (is_flag(i, "--jobs")) {
      args.opts.jobs = std::atoi(value(i));
    } else if (is_flag(i, "--procs")) {
      args.opts.procs = std::atoi(value(i));
    } else if (is_flag(i, "--state")) {
      args.opts.state_path = value(i);
    } else if (is_flag(i, "--retries")) {
      args.opts.max_attempts = std::atoi(value(i));
    } else if (is_flag(i, "--heartbeat-ms")) {
      args.opts.heartbeat_timeout_ms = std::atoi(value(i));
    } else if (is_flag(i, "--save")) {
      args.save_path = value(i);
    } else if (is_flag(i, "--report")) {
      args.report_path = value(i);
    } else if (is_flag(i, "--out")) {
      args.out_path = value(i);
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      args.progress = true;
    } else if (is_flag(i, "--kill-after-checkpoints")) {
      args.kill_after_checkpoints = std::atoi(value(i));
    } else if (is_flag(i, "--abort-unit")) {
      args.abort_unit = std::atoll(value(i));
    } else if (is_flag(i, "--abort-attempts")) {
      args.abort_attempts = std::atoi(value(i));
    } else {
      args.ok = false;
    }
  }
  if (args.opts.jobs < 1 || args.opts.procs < 0 || args.opts.max_attempts < 1 ||
      args.opts.heartbeat_timeout_ms < 1) {
    args.ok = false;
  }
  if ((command == "resume" || command == "report") && args.blob_path.empty()) args.ok = false;
  return args;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

int run_or_resume(Args args, bool resume) {
  if (resume) {
    args.spec = fleet::load_fleet_resume_spec(args.blob_path);
    args.opts.state_path = args.blob_path;
    args.opts.resume = true;
    std::printf("resume: %s (devices=%llu session=%ds shard=%llu)\n", args.blob_path.c_str(),
                static_cast<unsigned long long>(args.spec.devices), args.spec.session_s,
                static_cast<unsigned long long>(args.spec.shard_size));
  }
  args.opts.hooks.kill_after_checkpoints = args.kill_after_checkpoints;
  args.opts.hooks.abort_unit = args.abort_unit;
  args.opts.hooks.abort_attempts = args.abort_attempts;

  campaign::InterruptGuard guard;
  args.opts.interrupt = guard.flag();

  campaign::ProgressMeter meter("devices");
  if (args.progress) {
    args.opts.progress = [&meter](std::uint64_t done, std::uint64_t total) {
      meter.update(done, total);
    };
  }

  const fleet::FleetRunResult result = fleet::run_fleet(args.spec, args.opts);
  meter.finish();

  if (result.campaign.units_from_checkpoint > 0) {
    std::printf("resumed: %llu/%llu shards from checkpoint, %llu executed\n",
                static_cast<unsigned long long>(result.campaign.units_from_checkpoint),
                static_cast<unsigned long long>(fleet::fleet_total_units(args.spec)),
                static_cast<unsigned long long>(result.campaign.units_done -
                                                result.campaign.units_from_checkpoint));
  }
  for (const campaign::ShardOutcome& shard : result.campaign.shards) {
    if (shard.status == campaign::ShardStatus::Failed) {
      std::printf("shard units [%llu..%llu) FAILED after %d attempts: %s\n",
                  static_cast<unsigned long long>(shard.first_unit),
                  static_cast<unsigned long long>(shard.first_unit + shard.unit_count),
                  shard.attempts, shard.error.c_str());
    }
  }

  if (result.interrupted) {
    std::printf("interrupted by signal %d: %llu/%llu devices done, checkpoint %s\n",
                guard.signal_number(), static_cast<unsigned long long>(result.devices_done),
                static_cast<unsigned long long>(args.spec.devices),
                args.opts.state_path.empty()
                    ? "disabled (--state not set)"
                    : ("flushed to " + args.opts.state_path).c_str());
    std::fflush(stdout);
    return guard.exit_code();
  }

  std::printf("fleet: %llu/%llu devices, %.2fs wall, %.0f devices/sec, peak RSS %.1f MB, "
              "digest=%016llx\n",
              static_cast<unsigned long long>(result.devices_done),
              static_cast<unsigned long long>(args.spec.devices), result.wall_s,
              result.devices_per_sec, result.peak_rss_mb,
              static_cast<unsigned long long>(result.digest));

  if (!result.complete) {
    std::fflush(stdout);
    return 3;
  }
  if (!args.save_path.empty()) {
    if (!snapshot::Snapshot::write_file(args.save_path,
                                        save_fleet_blob(args.spec, result.aggregate))) {
      std::fprintf(stderr, "mvqoe_fleet: cannot write %s\n", args.save_path.c_str());
      return 2;
    }
    std::printf("aggregate blob: %s\n", args.save_path.c_str());
  }
  if (!args.report_path.empty()) {
    if (!write_text_file(args.report_path, fleet_report_json(args.spec, result.aggregate))) {
      std::fprintf(stderr, "mvqoe_fleet: cannot write %s\n", args.report_path.c_str());
      return 2;
    }
    std::printf("report: %s\n", args.report_path.c_str());
  }
  std::fflush(stdout);
  return 0;
}

int cmd_report(const Args& args) {
  const snapshot::Snapshot blob = snapshot::Snapshot::read_file(args.blob_path);
  const auto [spec, aggregate] = fleet::load_fleet_blob(blob);
  const std::string json = fleet_report_json(spec, aggregate);
  if (args.out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  if (!write_text_file(args.out_path, json)) {
    std::fprintf(stderr, "mvqoe_fleet: cannot write %s\n", args.out_path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv);
  if (!args.ok) return usage();
  try {
    if (command == "run") return run_or_resume(args, /*resume=*/false);
    if (command == "resume") return run_or_resume(args, /*resume=*/true);
    if (command == "report") return cmd_report(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mvqoe_fleet: %s\n", e.what());
    return 2;
  }
  return usage();
}
