// The registered reclaim/kill policy variants (DESIGN.md §16).
//
// `baseline` is the pre-refactor MemoryManager logic moved verbatim: the
// plan it produces and the cpu_refus expression are arithmetic-for-
// arithmetic identical, which is what keeps golden blobs and every
// BENCH_fig* JSON byte-identical. `swam`, `ariadne` and `partitioned`
// implement the published alternatives described in mem/policy.hpp.
#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "mem/policy.hpp"
#include "sched/scheduler.hpp"

namespace mvqoe::mem {

namespace {

// --- shared single-tier planner ---------------------------------------------

/// One scan batch against a single-tier zRAM store, with a per-process
/// swap-admission predicate. With admit-everything this IS the baseline
/// batch: same walks, same expressions, same rounding.
template <typename AdmitCompress>
ReclaimPlan plan_single_tier(const MemoryConfig& config, ReclaimView& view,
                             AdmitCompress admit) {
  ReclaimPlan plan;
  const Pages budget = config.kswapd_batch;
  plan.scanned = budget;

  // Scan efficiency: the reclaimer walks `budget` LRU candidates; only
  // the reclaimable fraction of the candidate pool yields pages. When
  // most resident pages are hot working sets, a batch scans a lot and
  // frees little — this ratio IS the paper's pressure metric
  // P = (1 - reclaimed/scanned) * 100 (§2), and it is why reclaim slows
  // to a crawl (and direct-reclaim stalls stretch) under real pressure.
  const bool desperate = view.available < config.minfree_service;
  Pages candidates = 0;
  Pages reclaimable = 0;
  const Pages zram_headroom = config.zram_capacity - view.zram_stored;
  Pages compressible_total = 0;
  for (ProcessMem* process : view.registry.reclaim_order()) {
    if (process->unevictable) continue;  // pinned: not on the LRU at all
    candidates += process->anon_resident + process->file_resident;
    const Pages protected_file =
        desperate ? 0 : std::min(process->file_resident, process->file_working_set / 2);
    reclaimable += process->file_resident - protected_file;
    if (admit(*process)) {
      compressible_total += std::max<Pages>(0, process->anon_resident - process->hot_pages);
    }
  }
  reclaimable += std::min(compressible_total, zram_headroom);
  reclaimable += view.file_dirty - view.dirty_in_flight;
  candidates += view.file_dirty;
  const double efficiency =
      candidates > 0 ? static_cast<double>(reclaimable) / static_cast<double>(candidates) : 0.0;
  Pages remaining = static_cast<Pages>(
      std::ceil(static_cast<double>(budget) * std::min(1.0, efficiency)));

  // 1. Drop clean file pages, coldest/lowest-priority processes first.
  // The active file list is protected (workingset detection): roughly
  // half of a process's file working set survives eviction until the
  // system is desperate (below the service minfree level).
  for (ProcessMem* process : view.registry.reclaim_order()) {
    if (remaining <= 0) break;
    if (process->unevictable) continue;
    const Pages protected_file =
        desperate ? 0 : std::min(process->file_resident, process->file_working_set / 2);
    const Pages take = std::min(process->file_resident - protected_file, remaining);
    if (take <= 0) continue;
    plan.file_drops.push_back({process, take});
    remaining -= take;
  }

  // 2. Compress admitted anonymous pages into zRAM (CPU work). Only
  // pages outside the owners' hot working sets are takeable.
  Pages compressed = 0;
  if (remaining > 0) {
    Pages zram_space = config.zram_capacity - view.zram_stored;
    for (ProcessMem* process : view.registry.reclaim_order()) {
      if (remaining <= 0 || zram_space <= 0) break;
      if (process->unevictable) continue;
      if (!admit(*process)) continue;
      const Pages cold = std::max<Pages>(0, process->anon_resident - process->hot_pages);
      const Pages take = std::min({cold, remaining, zram_space});
      if (take <= 0) continue;
      plan.compress.push_back({process, take, 0});
      remaining -= take;
      zram_space -= take;
      compressed += take;
    }
  }

  // 3. Queue dirty file pages for writeback through the storage stack.
  if (remaining > 0) {
    const Pages dirty_available = view.file_dirty - view.dirty_in_flight;
    const Pages writeback = std::min(remaining, dirty_available);
    if (writeback > 0) plan.writeback = writeback;
  }

  plan.cpu_refus = static_cast<double>(plan.scanned) * config.scan_cpu_refus +
                   static_cast<double>(compressed) * config.compress_cpu_refus;
  return plan;
}

// --- baseline ----------------------------------------------------------------

class BaselineReclaim final : public ReclaimPolicy {
 public:
  explicit BaselineReclaim(const MemoryConfig& config) : ReclaimPolicy(config) {}

  ReclaimPlan plan_batch(ReclaimView& view) override {
    return plan_single_tier(config_, view, [](const ProcessMem&) { return true; });
  }
};

// --- swam (arXiv 2306.08345) -------------------------------------------------

/// Swap admission: cached apps are kill-fodder — compressing them wastes
/// zRAM space and CPU on pages a cheap relaunch would regenerate, so
/// they are excluded from the store (the charter's swap_full_kill_fraction
/// handles the other half of the joint decision).
class SwamReclaim final : public ReclaimPolicy {
 public:
  explicit SwamReclaim(const MemoryConfig& config) : ReclaimPolicy(config) {}

  ReclaimPlan plan_batch(ReclaimView& view) override {
    return plan_single_tier(config_, view, [](const ProcessMem& process) {
      return process.oom_adj < OomAdj::kCached;
    });
  }
};

/// Victim selection by relaunch cost: among eligible processes, kill the
/// one freeing the most pages per unit of relaunch pain (cached apps
/// relaunch almost free; killing the foreground costs a full cold
/// start). Ties keep the reclaim-order winner (higher adj, colder LRU),
/// so selection is deterministic.
class SwamKill final : public KillPolicy {
 public:
  using KillPolicy::KillPolicy;

  std::optional<ProcessId> pick_victim(ProcessRegistry& registry, int min_adj) override {
    const ProcessMem* best = nullptr;
    double best_score = -1.0;
    for (ProcessMem* process : registry.reclaim_order()) {
      if (!process->killable || process->oom_adj < min_adj) continue;
      const double freed = static_cast<double>(process->anon_resident +
                                               process->file_resident + process->anon_swapped);
      const double score = freed / relaunch_weight(process->oom_adj);
      if (score > best_score) {
        best_score = score;
        best = process;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->pid;
  }

  static double relaunch_weight(int adj) noexcept {
    if (adj >= OomAdj::kCached) return 1.0;
    if (adj >= OomAdj::kService) return 4.0;
    if (adj >= OomAdj::kPerceptible) return 16.0;
    if (adj >= OomAdj::kVisible) return 32.0;
    return 64.0;
  }
};

// --- ariadne (arXiv 2502.12826) ----------------------------------------------

/// Hotness-aware size-adaptive compressed swap: a per-process hotness
/// EMA (recent CPU consumption sampled from the scheduler each batch)
/// orders compression coldest-process-first into two zRAM tiers — a
/// high-ratio/slow tier for cold processes and a low-ratio/fast tier for
/// warm ones — and the batch size doubles when the system is desperate.
/// Carries real state (hotness EMAs, per-process tier counts), so it
/// registers an MPOL snapshot section.
class AriadneReclaim final : public ReclaimPolicy {
 public:
  AriadneReclaim(const MemoryConfig& config, double hot_cut_refus, double cold_ratio,
                 double warm_ratio, double cold_cpu_refus, double warm_cpu_refus)
      : ReclaimPolicy(config),
        hot_cut_refus_(hot_cut_refus),
        cold_ratio_(cold_ratio),
        warm_ratio_(warm_ratio),
        cold_cpu_refus_(cold_cpu_refus),
        warm_cpu_refus_(warm_cpu_refus) {}

  void attach_scheduler(const sched::Scheduler* scheduler) override {
    scheduler_ = scheduler;
    pid_of_tid_.assign(1, ProcessId{0});
  }

  ReclaimPlan plan_batch(ReclaimView& view) override {
    sample_hotness();
    ReclaimPlan plan;
    const bool desperate = view.available < config_.minfree_service;
    // Size-adaptive batching: scan twice as hard once the system is
    // below the service minfree level.
    const Pages budget = desperate ? config_.kswapd_batch * 2 : config_.kswapd_batch;
    plan.scanned = budget;

    Pages candidates = 0;
    Pages reclaimable = 0;
    const Pages zram_headroom = config_.zram_capacity - view.zram_stored;
    Pages compressible_total = 0;
    for (ProcessMem* process : view.registry.reclaim_order()) {
      if (process->unevictable) continue;
      candidates += process->anon_resident + process->file_resident;
      const Pages protected_file =
          desperate ? 0 : std::min(process->file_resident, process->file_working_set / 2);
      reclaimable += process->file_resident - protected_file;
      compressible_total += std::max<Pages>(0, process->anon_resident - process->hot_pages);
    }
    reclaimable += std::min(compressible_total, zram_headroom);
    reclaimable += view.file_dirty - view.dirty_in_flight;
    candidates += view.file_dirty;
    const double efficiency =
        candidates > 0 ? static_cast<double>(reclaimable) / static_cast<double>(candidates)
                       : 0.0;
    Pages remaining = static_cast<Pages>(
        std::ceil(static_cast<double>(budget) * std::min(1.0, efficiency)));

    // File drops: baseline order (adj desc, LRU cold-first).
    for (ProcessMem* process : view.registry.reclaim_order()) {
      if (remaining <= 0) break;
      if (process->unevictable) continue;
      const Pages protected_file =
          desperate ? 0 : std::min(process->file_resident, process->file_working_set / 2);
      const Pages take = std::min(process->file_resident - protected_file, remaining);
      if (take <= 0) continue;
      plan.file_drops.push_back({process, take});
      remaining -= take;
    }

    // Compression: coldest process first (hotness asc, unique lru_seq
    // breaks ties → deterministic total order), tier by hotness cut.
    Pages cold_pages = 0;
    Pages warm_pages = 0;
    if (remaining > 0) {
      order_.clear();
      for (ProcessMem* process : view.registry.reclaim_order()) {
        if (!process->unevictable) order_.push_back({hotness_of(process->pid), process});
      }
      std::sort(order_.begin(), order_.end(), [](const OrderKey& a, const OrderKey& b) {
        if (a.hotness != b.hotness) return a.hotness < b.hotness;
        return a.process->lru_seq < b.process->lru_seq;
      });
      Pages zram_space = config_.zram_capacity - view.zram_stored;
      for (const OrderKey& key : order_) {
        ProcessMem* process = key.process;
        if (remaining <= 0 || zram_space <= 0) break;
        const Pages cold = std::max<Pages>(0, process->anon_resident - process->hot_pages);
        const Pages take = std::min({cold, remaining, zram_space});
        if (take <= 0) continue;
        const bool cold_tier = key.hotness <= hot_cut_refus_;
        plan.compress.push_back({process, take, cold_tier ? 0 : 1});
        (cold_tier ? cold_pages : warm_pages) += take;
        remaining -= take;
        zram_space -= take;
      }
    }

    if (remaining > 0) {
      const Pages dirty_available = view.file_dirty - view.dirty_in_flight;
      const Pages writeback = std::min(remaining, dirty_available);
      if (writeback > 0) plan.writeback = writeback;
    }

    plan.cpu_refus = static_cast<double>(plan.scanned) * config_.scan_cpu_refus +
                     static_cast<double>(cold_pages) * cold_cpu_refus_ +
                     static_cast<double>(warm_pages) * warm_cpu_refus_;
    return plan;
  }

  Pages zram_physical(Pages stored) const noexcept override {
    (void)stored;  // == cold_stored_ + warm_stored_ (conservation-checked)
    Pages physical = 0;
    if (cold_stored_ > 0) {
      physical += static_cast<Pages>(
          std::ceil(static_cast<double>(cold_stored_) / cold_ratio_));
    }
    if (warm_stored_ > 0) {
      physical += static_cast<Pages>(
          std::ceil(static_cast<double>(warm_stored_) / warm_ratio_));
    }
    return physical;
  }

  void note_swap_out(ProcessId pid, Pages pages, int tier) override {
    TierCount& count = stored_[pid];
    if (tier == 0) {
      count.cold += pages;
      cold_stored_ += pages;
    } else {
      count.warm += pages;
      warm_stored_ += pages;
    }
  }

  void note_swap_release(ProcessId pid, Pages pages) override {
    const auto it = stored_.find(pid);
    if (it == stored_.end()) return;
    // Warm pages come back first: the fast tier doubles as the staging
    // area for likely-soon faults.
    const Pages from_warm = std::min(pages, it->second.warm);
    it->second.warm -= from_warm;
    warm_stored_ -= from_warm;
    const Pages from_cold = std::min(pages - from_warm, it->second.cold);
    it->second.cold -= from_cold;
    cold_stored_ -= from_cold;
    if (it->second.cold == 0 && it->second.warm == 0) stored_.erase(it);
  }

  bool has_state() const noexcept override { return true; }

  void save(snapshot::ByteWriter& w) const override {
    w.u32(1);  // ariadne state version
    w.i64(cold_stored_);
    w.i64(warm_stored_);
    w.u64(stored_.size());
    for (const auto& [pid, count] : stored_) {
      w.u32(pid);
      w.i64(count.cold);
      w.i64(count.warm);
    }
    // Hotness, then previous CPU, each in ascending pid order.
    w.u64(tracked_pids_);
    for (ProcessId pid = 0; pid < pids_.size(); ++pid) {
      if (!pids_[pid].tracked) continue;
      w.u32(pid);
      w.f64(pids_[pid].hotness);
    }
    w.u64(tracked_pids_);
    for (ProcessId pid = 0; pid < pids_.size(); ++pid) {
      if (!pids_[pid].tracked) continue;
      w.u32(pid);
      w.f64(pids_[pid].prev_cpu);
    }
  }

 private:
  double hotness_of(ProcessId pid) const noexcept {
    return pid < pids_.size() ? pids_[pid].hotness : 0.0;
  }

  /// Fold the scheduler's cumulative per-thread CPU counters into a
  /// per-process hotness EMA (one sample per batch). Each process sums
  /// its threads in ascending tid order from 0.0, which keeps the fold
  /// deterministic; terminated threads keep their final counters, so
  /// deltas stay non-negative. Reuses its buffers: no per-batch
  /// allocation once every thread has been seen.
  void sample_hotness() {
    if (scheduler_ == nullptr) return;  // Immediate mode: LRU order only
    const auto count = static_cast<sched::ThreadId>(scheduler_->thread_count());
    // A thread's pid never changes, so the cache only grows.
    for (auto tid = static_cast<sched::ThreadId>(pid_of_tid_.size()); tid <= count; ++tid) {
      const auto pid = static_cast<ProcessId>(scheduler_->pid_of(tid));
      pid_of_tid_.push_back(pid);
      if (pid >= pids_.size()) pids_.resize(static_cast<std::size_t>(pid) + 1);
    }
    for (sched::ThreadId tid = 1; tid <= count; ++tid) {
      const ProcessId pid = pid_of_tid_[tid];
      PidState& state = pids_[pid];
      if (!state.sampled) {
        state.sampled = true;
        state.cumulative = 0.0;
        sampled_.push_back(pid);
      }
      state.cumulative += scheduler_->counters(tid).cpu_refus_consumed;
    }
    for (const ProcessId pid : sampled_) {
      PidState& state = pids_[pid];
      state.sampled = false;
      if (!state.tracked) {
        state.tracked = true;
        ++tracked_pids_;
      }
      const double delta = state.cumulative - state.prev_cpu;
      state.prev_cpu = state.cumulative;
      state.hotness = 0.5 * state.hotness + 0.5 * delta;
    }
    sampled_.clear();
  }

  struct TierCount {
    Pages cold = 0;
    Pages warm = 0;
  };

  /// Per-process hotness state, indexed by pid.
  struct PidState {
    double hotness = 0.0;
    double prev_cpu = 0.0;
    double cumulative = 0.0;  // this batch's CPU sum (valid while sampled)
    bool tracked = false;     // sampled at least once: serialized by save()
    bool sampled = false;     // in sampled_ this batch
  };

  /// Compression candidate with its precomputed sort key.
  struct OrderKey {
    double hotness = 0.0;
    ProcessMem* process = nullptr;
  };

  const sched::Scheduler* scheduler_ = nullptr;
  double hot_cut_refus_;
  double cold_ratio_;
  double warm_ratio_;
  double cold_cpu_refus_;
  double warm_cpu_refus_;
  Pages cold_stored_ = 0;
  Pages warm_stored_ = 0;
  std::map<ProcessId, TierCount> stored_;
  std::vector<PidState> pids_;
  std::size_t tracked_pids_ = 0;
  std::vector<ProcessId> pid_of_tid_ = {0};  // tid -> pid cache (tids start at 1)
  std::vector<ProcessId> sampled_;  // reused per-batch buffer
  std::vector<OrderKey> order_;     // reused per-batch buffer
};

// --- partitioned (arXiv 2101.10707) ------------------------------------------

/// Reserved foreground partition: the foreground/visible/perceptible set
/// is never compressed to zRAM (its pages stay resident, so the user-
/// facing app never pays decompression stalls), and the kill charter
/// carves `reserve_pages` out of the background minfree ladder so
/// background kills fire early enough to keep the partition whole.
class PartitionedReclaim final : public ReclaimPolicy {
 public:
  explicit PartitionedReclaim(const MemoryConfig& config) : ReclaimPolicy(config) {}

  ReclaimPlan plan_batch(ReclaimView& view) override {
    return plan_single_tier(config_, view, [](const ProcessMem& process) {
      return process.oom_adj > OomAdj::kPerceptible;
    });
  }
};

// --- factory -----------------------------------------------------------------

void require_params(const MemPolicySpec& spec, std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : spec.params) {
    (void)value;
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument("mem policy '" + spec.name + "': unknown parameter '" + key +
                                  "'");
    }
  }
}

double param_or(const MemPolicySpec& spec, const char* key, double fallback) {
  for (const auto& [k, v] : spec.params) {
    if (k == key) return v;
  }
  return fallback;
}

bool has_param(const MemPolicySpec& spec, const char* key) {
  for (const auto& [k, v] : spec.params) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

KillCharter base_charter(const MemPolicySpec& spec, const MemoryConfig& config) {
  KillCharter charter;
  charter.policy_name = spec.name;
  charter.kill_threshold = config.lmkd_kill_threshold;
  charter.foreground_threshold = config.lmkd_foreground_threshold;
  charter.background_adj_floor = config.lmkd_background_adj_floor;
  charter.minfree_cached = config.minfree_cached;
  charter.minfree_service = config.minfree_service;
  charter.minfree_perceptible = config.minfree_perceptible;
  charter.minfree_foreground = config.minfree_foreground;
  return charter;
}

}  // namespace

std::unique_ptr<MemPolicy> make_mem_policy(const MemPolicySpec& spec,
                                           const MemoryConfig& config) {
  KillCharter charter = base_charter(spec, config);
  if (spec.name == "baseline") {
    require_params(spec, {});
    return std::make_unique<MemPolicy>(spec, std::make_unique<BaselineReclaim>(config),
                                       std::make_unique<KillPolicy>(std::move(charter)));
  }
  if (spec.name == "swam") {
    require_params(spec, {"swap_full_fraction", "kill_cooldown_ms"});
    charter.victim_rule = KillCharter::VictimRule::FloorOnly;
    const double fraction = param_or(spec, "swap_full_fraction", 0.85);
    if (fraction <= 0.0 || fraction > 1.0) {
      throw std::invalid_argument("mem policy 'swam': swap_full_fraction must be in (0, 1]");
    }
    charter.swap_full_kill_fraction = fraction;
    const double cooldown_ms = param_or(spec, "kill_cooldown_ms", 250.0);
    if (cooldown_ms < 0.0) {
      throw std::invalid_argument("mem policy 'swam': kill_cooldown_ms must be >= 0");
    }
    charter.kill_cooldown = sim::msec(static_cast<std::int64_t>(std::llround(cooldown_ms)));
    return std::make_unique<MemPolicy>(spec, std::make_unique<SwamReclaim>(config),
                                       std::make_unique<SwamKill>(std::move(charter)));
  }
  if (spec.name == "ariadne") {
    require_params(spec,
                   {"hot_cut_refus", "cold_ratio", "warm_ratio", "cold_cpu_refus",
                    "warm_cpu_refus"});
    const double hot_cut = param_or(spec, "hot_cut_refus", 500.0);
    const double cold_ratio = param_or(spec, "cold_ratio", 3.9);
    const double warm_ratio = param_or(spec, "warm_ratio", 2.2);
    const double cold_cpu = param_or(spec, "cold_cpu_refus", 34.0);
    const double warm_cpu = param_or(spec, "warm_cpu_refus", 14.0);
    if (cold_ratio < 1.0 || warm_ratio < 1.0) {
      throw std::invalid_argument("mem policy 'ariadne': compression ratios must be >= 1");
    }
    if (cold_cpu < 0.0 || warm_cpu < 0.0 || hot_cut < 0.0) {
      throw std::invalid_argument("mem policy 'ariadne': CPU costs and hot cut must be >= 0");
    }
    return std::make_unique<MemPolicy>(
        spec,
        std::make_unique<AriadneReclaim>(config, hot_cut, cold_ratio, warm_ratio, cold_cpu,
                                         warm_cpu),
        std::make_unique<KillPolicy>(std::move(charter)));
  }
  if (spec.name == "partitioned") {
    require_params(spec, {"reserve_mb"});
    charter.reserve_pages = config.minfree_perceptible;
    if (has_param(spec, "reserve_mb")) {
      const double reserve_mb = param_or(spec, "reserve_mb", 0.0);
      if (reserve_mb < 0.0) {
        throw std::invalid_argument("mem policy 'partitioned': reserve_mb must be >= 0");
      }
      charter.reserve_pages = pages_from_mb(static_cast<std::int64_t>(std::llround(reserve_mb)));
    }
    return std::make_unique<MemPolicy>(spec, std::make_unique<PartitionedReclaim>(config),
                                       std::make_unique<KillPolicy>(std::move(charter)));
  }
  throw std::invalid_argument("unknown mem policy '" + spec.name +
                              "' (known: baseline, swam, ariadne, partitioned)");
}

}  // namespace mvqoe::mem
