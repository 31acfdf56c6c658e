// mvqoe_campaign — crash-safe bench/sweep campaigns.
//
//   mvqoe_campaign sweep [--family F] [--duration S] [--organic N]
//                        [--states s1,s2,...] [--fps n1,n2,...]
//                        [--heights h1,h2,...] [--runs N] [--seed N]
//                        [--policy NAME] [--cc NAME]
//                        [--jobs N] [--procs N] [--state FILE]
//                        [--shard-size N] [--retries N] [--heartbeat-ms N]
//                        [--out NAME] [--progress]
//       Run a sweep grid (states x fps x heights, `runs` repetitions per
//       cell) through campaign::run_campaign (DESIGN.md §13). One
//       campaign unit is one (state, run) group (runner::run_warm_group):
//       its (fps, height) cells each boot the group's world and play
//       their own video phase. Groups run in-process, serially by
//       default or on --jobs N threads; --procs N (or --state) runs them
//       in N supervised worker processes instead, where crashed or hung
//       workers are SIGKILLed and retried with exponential backoff and,
//       with --state, every completed group is checkpointed atomically.
//       --out writes the grid as BENCH_<NAME>.json (the same payload
//       runner::write_sweep_json produces, byte-identical across
//       serial, --jobs, --procs and kill-and-resume).
//
//   mvqoe_campaign sweep --resume FILE [--jobs N] [--procs N]
//       Resume a killed campaign: the grid is reconstructed from the
//       checkpoint (a checkpoint recorded under a different grid is
//       refused), only the missing groups run, and the digest and BENCH
//       json are byte-identical to an uninterrupted run.
//
// Exit status: 0 complete, 2 usage or I/O errors, 3 campaign degraded
// (a shard exhausted its retry budget), 128+signo interrupted with the
// checkpoint flushed.
#include <cstdio>
#include <exception>
#include <string>

#include "campaign/cli.hpp"
#include "campaign/sweep_campaign.hpp"
#include "runner/scenario_batch.hpp"

namespace {

using namespace mvqoe;

int usage() {
  std::fprintf(stderr,
               "usage: mvqoe_campaign sweep [--family F] [--duration S] [--organic N]\n"
               "                            [--states s1,s2,...] [--fps n1,n2,...]\n"
               "                            [--heights h1,h2,...] [--runs N] [--seed N]\n"
               "                            [--policy NAME] [--cc NAME] [--jobs N]\n"
               "                            [--procs N] [--state FILE] [--shard-size N]\n"
               "                            [--retries N] [--heartbeat-ms N] [--out NAME]\n"
               "                            [--progress]\n"
               "       mvqoe_campaign sweep --resume FILE [--jobs N] [--procs N]\n"
               "states: normal moderate low critical\n"
               "--progress paints a done/total + units/sec + ETA line on stderr\n");
  return 2;
}

struct Args {
  campaign::SweepCampaignSpec spec;
  campaign::cli::CampaignFlags flags;
  std::string resume_path;
  std::string out_name;
  bool ok = true;
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.flags.options.shard_size = 1;  // one (state, run) group per shard
  campaign::cli::Scanner scan(argc, argv, 2);
  while (scan.next()) {
    if (scan.is("--policy")) {
      args.spec.mem_policy.name = scan.text();
    } else if (scan.is("--cc")) {
      args.spec.net.cc = scan.text();
    } else if (scan.is("--shard-size")) {
      args.flags.options.shard_size = static_cast<std::size_t>(scan.integer(1));
    } else if (scan.is("--resume")) {
      args.resume_path = scan.text();
    } else if (scan.is("--out")) {
      args.out_name = scan.text();
    } else if (!campaign::cli::parse_grid_flag(scan, args.spec) && !args.flags.parse(scan)) {
      scan.fail();
    }
  }
  args.ok = scan.ok() && (args.resume_path.empty() || args.flags.resume_from(args.resume_path));
  return args;
}

int cmd_sweep(const Args& args) {
  campaign::SweepCampaignSpec spec = args.spec;
  if (!args.resume_path.empty()) {
    spec = campaign::load_sweep_resume_config(args.resume_path);
    std::printf("resume: %s (family=%s %zu states x %zu fps x %zu heights, %d run(s))\n",
                args.resume_path.c_str(), spec.family.c_str(), spec.states.size(),
                spec.fps.size(), spec.heights.size(), spec.runs);
  }

  campaign::cli::Session session(args.flags, "groups");
  const campaign::SweepCampaignResult result =
      campaign::run_sweep_campaign(spec, session.options());
  const campaign::CampaignResult& run = result.campaign;
  const std::uint64_t total = campaign::sweep_total_units(spec);
  session.report(run, total);
  if (const int code = session.interrupted(run, run.units_done, total)) return code;

  std::printf("sweep campaign: %zu cells x %d run(s), %llu/%llu groups, procs=%d "
              "digest=%016llx\n",
              result.cells.size(), spec.runs, static_cast<unsigned long long>(run.units_done),
              static_cast<unsigned long long>(total), run.procs_used,
              static_cast<unsigned long long>(run.digest));
  if (!args.out_name.empty()) {
    // The grid JSON is a result artifact: byte-identical across serial,
    // --jobs, --procs and kill-and-resume, so it records the canonical
    // serial form rather than this run's parallelism.
    const std::string path = runner::write_sweep_json(args.out_name, result.cells, spec.runs,
                                                      /*jobs_used=*/1, spec.seed);
    if (path.empty()) {
      std::fprintf(stderr, "mvqoe_campaign: cannot write BENCH_%s.json\n",
                   args.out_name.c_str());
      return 2;
    }
    std::printf("machine-readable: %s\n", path.c_str());
  }
  std::fflush(stdout);
  return run.complete ? 0 : 3;
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
