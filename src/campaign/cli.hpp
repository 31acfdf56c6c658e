// Command-line plumbing shared by the campaign tools (mvqoe_fuzz,
// mvqoe_campaign, mvqoe_policy, mvqoe_fleet): one flag scanner with
// strict number parsing, the flags every campaign takes, the sweep-grid
// flags the sweep and the policy compare share, the interrupt + progress
// wiring, and the report lines a campaign prints when it ends.
//
//   cli::CampaignFlags flags;
//   cli::Scanner args(argc, argv, 2);
//   while (args.next()) {
//     if (args.is("--runs")) runs = args.integer(1);
//     else if (!flags.parse(args)) args.fail();
//   }
//   if (!args.ok()) return usage();
//   cli::Session session(flags, "runs");
//   const auto result = run_campaign(..., session.options());
//   session.report(result, total_units);
//   if (const int code = session.interrupted(result, result.units_done, total_units)) return code;
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "campaign/coordinator.hpp"
#include "campaign/progress.hpp"
#include "campaign/signal.hpp"
#include "campaign/sweep_campaign.hpp"

namespace mvqoe::campaign::cli {

/// Walks argv from index `first`, one flag at a time. Values come from
/// `--x v` or `--x=v`. Any malformed value flags an error; the tool
/// then prints its usage and exits 2.
class Scanner {
 public:
  Scanner(int argc, char** argv, int first) : argc_(argc), argv_(argv), i_(first - 1) {}

  /// Advance to the next argument; false at the end or after an error.
  bool next();
  /// The current argument is `name` or `name=value`.
  bool is(const char* name) const;
  /// The current flag's value.
  std::string text();
  /// The value as a decimal integer in [min, INT_MAX]: the whole token
  /// must be the number. Anything else flags an error and returns min.
  int integer(int min = std::numeric_limits<int>::min());
  /// The value as an unsigned 64-bit integer (decimal, or 0x hex).
  std::uint64_t u64();
  /// Comma-separated integers; an empty or malformed item is an error.
  std::vector<int> integers();
  /// Comma-separated names; an empty item is an error.
  std::vector<std::string> names();

  void fail() { ok_ = false; }
  bool ok() const { return ok_; }

 private:
  int argc_;
  char** argv_;
  int i_;
  bool ok_ = true;
};

/// "normal" | "moderate" | "low" | "critical" — the --states spelling.
const char* state_name(mem::PressureLevel state);

/// The flags every campaign tool takes, mapped onto CampaignOptions:
///   --jobs N --procs N --state FILE --retries N --heartbeat-ms N
///   --kill-after-checkpoints N --progress
struct CampaignFlags {
  CampaignOptions options;
  bool progress = false;

  /// Consume the scanner's current flag if it is one of the above.
  bool parse(Scanner& args);
  /// Point the campaign at checkpoint `path` to resume. False when
  /// --state was given too (a resume writes back to its own file).
  bool resume_from(const std::string& path);
};

/// The sweep-grid flags mvqoe_campaign sweep and mvqoe_policy compare
/// share: --family --duration --organic --states --fps --heights --runs
/// --seed. Consumes the current flag if it is one.
bool parse_grid_flag(Scanner& args, SweepCampaignSpec& spec);

/// One campaign invocation: installs the SIGINT/SIGTERM guard and, with
/// --progress, a stderr meter into its copy of the options, and prints
/// the lines every campaign tool shares once the campaign returns.
class Session {
 public:
  /// `noun` names a campaign unit in the report lines (runs, groups,
  /// units); `progress_noun` labels the meter and the interrupted line
  /// (default: `noun`).
  Session(const CampaignFlags& flags, const char* noun, const char* progress_noun = nullptr);
  /// options().progress points back at this session's meter.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const CampaignOptions& options() const { return options_; }

  /// End the progress line, then print "resumed: ..." for a resumed
  /// campaign and one line per shard that FAILED or recovered on a retry.
  void report(const CampaignResult& result, std::uint64_t total_units);
  /// When the campaign was interrupted: print "interrupted by signal"
  /// with `done`/`total` progress units and the checkpoint's fate, and
  /// return 128 + signo. Otherwise return 0.
  int interrupted(const CampaignResult& result, std::uint64_t done, std::uint64_t total);

 private:
  const char* noun_;
  const char* progress_noun_;
  InterruptGuard guard_;
  ProgressMeter meter_;
  CampaignOptions options_;
};

}  // namespace mvqoe::campaign::cli
