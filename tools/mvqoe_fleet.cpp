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
//       (family, cohort) world in-process. Shards run through
//       campaign::run_campaign: serially, on --jobs N threads, or in
//       --procs N supervised worker processes (checkpointed with
//       --state). The report digest is byte-identical across all of
//       them and kill-and-resume. --save bundles
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
#include <exception>
#include <string>

#include "campaign/cli.hpp"
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
  campaign::cli::CampaignFlags flags;
  std::string blob_path;  // `resume` / `report` positional
  std::string save_path;
  std::string report_path;
  std::string out_path;
  bool ok = true;
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.flags.options.shard_size = 2;  // campaign units (device shards) per worker shard
  const std::string command = argv[1];
  int first = 2;
  if ((command == "resume" || command == "report") && first < argc && argv[first][0] != '-') {
    args.blob_path = argv[first++];
  }
  campaign::cli::Scanner scan(argc, argv, first);
  while (scan.next()) {
    if (scan.is("--devices")) {
      args.spec.devices = scan.u64();
    } else if (scan.is("--seed")) {
      args.spec.seed = scan.u64();
    } else if (scan.is("--session-s")) {
      args.spec.session_s = scan.integer();
    } else if (scan.is("--policy")) {
      args.spec.mem_policy.name = scan.text();
    } else if (scan.is("--cc")) {
      args.spec.net.cc = scan.text();
    } else if (scan.is("--sample-period")) {
      args.spec.sample_period_s = scan.integer();
    } else if (scan.is("--warmup-s")) {
      args.spec.warmup_s = scan.integer();
    } else if (scan.is("--shard-size")) {
      args.spec.shard_size = scan.u64();
    } else if (scan.is("--save")) {
      args.save_path = scan.text();
    } else if (scan.is("--report")) {
      args.report_path = scan.text();
    } else if (scan.is("--out")) {
      args.out_path = scan.text();
    } else if (!args.flags.parse(scan)) {
      scan.fail();
    }
  }
  args.ok = scan.ok() && ((command != "resume" && command != "report") || !args.blob_path.empty());
  // A resume writes back to the checkpoint it reads; --state cannot redirect it.
  if (command == "resume" && !args.flags.resume_from(args.blob_path)) args.ok = false;
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
    std::printf("resume: %s (devices=%llu session=%ds shard=%llu)\n", args.blob_path.c_str(),
                static_cast<unsigned long long>(args.spec.devices), args.spec.session_s,
                static_cast<unsigned long long>(args.spec.shard_size));
  }

  campaign::cli::Session session(args.flags, "units", "devices");
  const fleet::FleetRunResult result = fleet::run_fleet(args.spec, session.options());
  session.report(result.campaign, fleet::fleet_total_units(args.spec));
  if (const int code = session.interrupted(result.campaign, result.devices_done,
                                           args.spec.devices)) {
    return code;
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
