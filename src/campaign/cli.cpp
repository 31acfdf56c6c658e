#include "campaign/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace mvqoe::campaign::cli {

namespace {

/// The whole token is one in-range number: decimal, or 0x hex when
/// unsigned. No sign on unsigned values, no spaces, no trailing bytes.
template <typename T>
bool parse_number(std::string_view token, T& out) {
  int base = 10;
  if (std::is_unsigned_v<T> && token.size() > 2 && token[0] == '0' &&
      (token[1] == 'x' || token[1] == 'X')) {
    token.remove_prefix(2);
    base = 16;
  }
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out, base);
  return ec == std::errc() && ptr == end;
}

/// Split on commas, keeping empty items ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      return out;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
}

bool parse_state(const std::string& name, mem::PressureLevel& out) {
  for (const auto state : {mem::PressureLevel::Normal, mem::PressureLevel::Moderate,
                           mem::PressureLevel::Low, mem::PressureLevel::Critical}) {
    if (name == state_name(state)) {
      out = state;
      return true;
    }
  }
  return false;
}

}  // namespace

bool Scanner::next() {
  if (!ok_) return false;
  ++i_;
  return i_ < argc_;
}

bool Scanner::is(const char* name) const {
  const std::size_t len = std::strlen(name);
  return std::strncmp(argv_[i_], name, len) == 0 &&
         (argv_[i_][len] == '\0' || argv_[i_][len] == '=');
}

std::string Scanner::text() {
  const char* eq = std::strchr(argv_[i_], '=');
  if (eq != nullptr) return eq + 1;
  if (i_ + 1 >= argc_) {
    fail();
    return "";
  }
  return argv_[++i_];
}

int Scanner::integer(int min) {
  int value = min;
  if (!parse_number(text(), value) || value < min) {
    fail();
    return min;
  }
  return value;
}

std::uint64_t Scanner::u64() {
  std::uint64_t value = 0;
  if (!parse_number(text(), value)) fail();
  return value;
}

std::vector<int> Scanner::integers() {
  std::vector<int> out;
  for (const std::string& item : split_csv(text())) {
    int value = 0;
    if (!parse_number(item, value)) fail();
    out.push_back(value);
  }
  return out;
}

std::vector<std::string> Scanner::names() {
  std::vector<std::string> out = split_csv(text());
  for (const std::string& name : out) {
    if (name.empty()) fail();
  }
  return out;
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

bool CampaignFlags::parse(Scanner& args) {
  if (args.is("--jobs")) {
    options.jobs = args.integer(0);
  } else if (args.is("--procs")) {
    options.procs = args.integer(0);
  } else if (args.is("--state")) {
    options.state_path = args.text();
  } else if (args.is("--retries")) {
    options.max_attempts = args.integer(1);
  } else if (args.is("--heartbeat-ms")) {
    options.heartbeat_timeout_ms = args.integer(1);
  } else if (args.is("--kill-after-checkpoints")) {
    options.hooks.kill_after_checkpoints = args.integer(0);
  } else if (args.is("--progress")) {
    progress = true;
  } else {
    return false;
  }
  return true;
}

bool CampaignFlags::resume_from(const std::string& path) {
  if (!options.state_path.empty()) return false;
  options.state_path = path;
  options.resume = true;
  return true;
}

bool parse_grid_flag(Scanner& args, SweepCampaignSpec& spec) {
  if (args.is("--family")) {
    spec.family = args.text();
  } else if (args.is("--duration")) {
    spec.duration_s = args.integer();
  } else if (args.is("--organic")) {
    spec.organic_apps = args.integer();
  } else if (args.is("--states")) {
    spec.states.clear();
    for (const std::string& name : args.names()) {
      mem::PressureLevel state{};
      if (!parse_state(name, state)) args.fail();
      spec.states.push_back(state);
    }
  } else if (args.is("--fps")) {
    spec.fps = args.integers();
  } else if (args.is("--heights")) {
    spec.heights = args.integers();
  } else if (args.is("--runs")) {
    spec.runs = args.integer();
  } else if (args.is("--seed")) {
    spec.seed = args.u64();
  } else {
    return false;
  }
  return true;
}

Session::Session(const CampaignFlags& flags, const char* noun, const char* progress_noun)
    : noun_(noun),
      progress_noun_(progress_noun != nullptr ? progress_noun : noun),
      meter_(progress_noun_),
      options_(flags.options) {
  options_.interrupt = guard_.flag();
  if (flags.progress) {
    options_.progress = [this](std::uint64_t done, std::uint64_t total) {
      meter_.update(done, total);
    };
  }
}

void Session::report(const CampaignResult& result, std::uint64_t total_units) {
  meter_.finish();
  if (result.units_from_checkpoint > 0) {
    std::printf("resumed: %llu/%llu %s from checkpoint, %llu executed\n",
                static_cast<unsigned long long>(result.units_from_checkpoint),
                static_cast<unsigned long long>(total_units), noun_,
                static_cast<unsigned long long>(result.units_done -
                                                result.units_from_checkpoint));
  }
  for (const ShardOutcome& shard : result.shards) {
    const auto first = static_cast<unsigned long long>(shard.first_unit);
    const auto end = static_cast<unsigned long long>(shard.first_unit + shard.unit_count);
    if (shard.status == ShardStatus::Failed) {
      std::printf("shard %s [%llu..%llu) FAILED after %d attempts: %s\n", noun_, first, end,
                  shard.attempts, shard.error.c_str());
    } else if (shard.attempts > 1) {
      std::printf("shard %s [%llu..%llu) recovered on attempt %d\n", noun_, first, end,
                  shard.attempts);
    }
  }
}

int Session::interrupted(const CampaignResult& result, std::uint64_t done, std::uint64_t total) {
  if (!result.interrupted) return 0;
  std::printf("interrupted by signal %d: %llu/%llu %s done, checkpoint %s\n",
              guard_.signal_number(), static_cast<unsigned long long>(done),
              static_cast<unsigned long long>(total), progress_noun_,
              options_.state_path.empty() ? "disabled (--state not set)"
                                          : ("flushed to " + options_.state_path).c_str());
  std::fflush(stdout);
  return guard_.exit_code();
}

}  // namespace mvqoe::campaign::cli
