// The Android-like kernel memory-management model (paper §2).
//
// Mechanisms implemented, and the paper sections they reproduce:
//   * Page pools: free / anonymous / file-clean / file-dirty / zRAM, with
//     a fixed kernel carve-out. Available memory = free + file cache.
//   * kswapd: woken when free memory drops below the `low` watermark,
//     reclaims in batches until `high`. Clean file pages are dropped,
//     anonymous pages are *compressed to zRAM* (CPU work on the kswapd
//     thread — why kswapd becomes the top-running thread in Fig 13),
//     dirty file pages are written back through the storage stack (mmcqd
//     traffic). kswapd runs at Fair priority like foreground threads, so
//     it steals CPU by fair-sharing, not preemption (paper §5).
//   * Direct reclaim: an allocation below the `min` watermark blocks the
//     allocating thread and makes it scan/reclaim itself, possibly
//     waiting for writeback or an lmkd kill (paper §2 "this can cause an
//     extra I/O wait in any thread").
//   * Pressure P = (1 - reclaimed/scanned) * 100, EMA-smoothed across
//     scan batches. lmkd kills the highest-oom_adj process when
//     60 < P < 95 and makes the foreground eligible at P >= 95
//     (paper §2 "Killing of processes").
//   * Trim signals: Moderate / Low / Critical levels derived from the
//     number of cached processes left in the LRU (6/5/3 on the 1 GB
//     preset, paper footnote 6), delivered to subscribed applications —
//     the onTrimMemory() path a memory-aware ABR listens to.
//   * Refault ("thrashing") support: touch_working_set() models a
//     process re-touching its heap and code pages; pages that were
//     compressed or evicted fault back in (decompression CPU, storage
//     reads) — the paper's §2 thrashing mechanism and the source of the
//     mmcqd storm in Table 5.
//
// Two driver modes:
//   * Scheduled — kswapd/lmkd are real threads on the simulated CPU and
//     I/O goes through the storage stack. Used by all video experiments.
//   * Immediate — reclaim applies instantly with no CPU/IO cost. Used by
//     the §3 field-study population simulator where only the *accounting*
//     (signal rates, dwell times, available memory) matters.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "mem/policy.hpp"
#include "mem/process_registry.hpp"
#include "mem/types.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "storage/storage.hpp"
#include "trace/tracer.hpp"

namespace mvqoe::mem {

class MemoryManager {
 public:
  using AllocCallback = std::function<void(bool ok)>;
  using TrimListener = std::function<void(PressureLevel)>;

  /// Scheduled mode: full CPU and I/O fidelity. `policy` selects the
  /// reclaim/kill regime (DESIGN.md §16); the default is the baseline
  /// Android model, byte-identical to the pre-policy manager.
  MemoryManager(sim::Engine& engine, MemoryConfig config, sched::Scheduler& scheduler,
                storage::StorageDevice& storage, trace::Tracer& tracer,
                const MemPolicySpec& policy = {});
  /// Immediate mode: reclaim is free and instant (field-study simulator).
  MemoryManager(sim::Engine& engine, MemoryConfig config, const MemPolicySpec& policy = {});

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  // --- Process lifecycle -------------------------------------------------
  ProcessMem& register_process(ProcessId pid, std::string name, int oom_adj,
                               std::function<void()> on_kill = nullptr);
  /// Voluntary exit: frees everything, no kill callback.
  void exit_process(ProcessId pid);
  /// lmkd-style kill: frees everything, fires on_kill, traces the kill.
  void kill_process(ProcessId pid);
  void set_oom_adj(ProcessId pid, int adj);
  void touch_lru(ProcessId pid);
  /// Declare the process's hot (actively-used / pinned) anon floor;
  /// kswapd will not compress the process below it. Clamped to the
  /// process's current anon total.
  void set_hot_pages(ProcessId pid, Pages hot);

  // --- Allocation --------------------------------------------------------
  /// Grow the process heap by `pages`. `tid` is the allocating thread
  /// (used for direct-reclaim CPU/stall; pass 0 for no thread, e.g. in
  /// Immediate mode). `done(ok)` may fire synchronously on the fast path;
  /// ok=false means the process died while the allocation waited.
  void alloc_anon(ProcessId pid, Pages pages, sched::ThreadId tid, AllocCallback done);
  void free_anon(ProcessId pid, Pages pages);

  /// Map `pages` of file-backed (code/resource) pages, reading them from
  /// storage. Also raises the process's file working set by `pages`.
  void map_file(ProcessId pid, Pages pages, sched::ThreadId tid, AllocCallback done);
  void unmap_file(ProcessId pid, Pages pages);

  /// Create `pages` of dirty file pages (app writes); they occupy memory
  /// until kswapd writes them back.
  void dirty_file(Pages pages);

  /// Model the process touching `anon_touch` heap pages and `file_touch`
  /// working-set file pages. Swapped/evicted portions fault back in:
  /// decompression CPU on `tid` plus storage reads, both of which may
  /// recurse into direct reclaim. `done(ok)` fires when resident.
  void touch_working_set(ProcessId pid, sched::ThreadId tid, Pages anon_touch, Pages file_touch,
                         AllocCallback done);

  // --- Introspection -----------------------------------------------------
  Pages free_pages() const noexcept;
  /// free + file cache, Android's availMem (§3 "available memory").
  Pages available_pages() const noexcept;
  Pages anon_pages() const noexcept { return anon_pool_; }
  Pages file_pages() const noexcept { return file_clean_ + file_dirty_; }
  Pages zram_stored() const noexcept { return zram_stored_; }
  double utilization() const noexcept;
  /// Reclaim-efficiency pressure estimate, decayed since the last scan
  /// batch: vmpressure is only meaningful while reclaim is running, and a
  /// stale reading must not keep lmkd killing after pressure passed.
  double pressure_P() const noexcept;
  PressureLevel level() const noexcept { return level_; }
  const VmStat& vmstat() const noexcept { return vmstat_; }
  const MemoryConfig& config() const noexcept { return config_; }
  const ProcessRegistry& registry() const noexcept { return registry_; }
  ProcessRegistry& registry() noexcept { return registry_; }
  bool kswapd_active() const noexcept { return kswapd_active_; }
  sched::ThreadId kswapd_tid() const noexcept { return kswapd_tid_; }
  sched::ThreadId lmkd_tid() const noexcept { return lmkd_tid_; }
  /// The active reclaim/kill policy bundle (MPOL snapshot section when
  /// the policy carries state).
  const MemPolicy& policy() const noexcept { return *policy_; }
  MemPolicy& policy() noexcept { return *policy_; }
  /// The kill rules the active policy declared — the observation surface
  /// the lmkd-ordering oracle replays against.
  const KillCharter& kill_charter() const noexcept { return policy_->charter(); }

  /// Subscribe to trim-signal deliveries (every transition into a
  /// non-Normal level). Listeners must outlive the manager or the run.
  void subscribe_trim(TrimListener listener);

  /// Page-accounting conservation audit (invariant watchdog hook): the
  /// per-process registry totals must equal the global pools, every pool
  /// must be non-negative, and in-flight writeback bounded by the dirty
  /// pool. `detail` names the first violated invariant.
  struct ConservationReport {
    bool ok = true;
    std::string detail;
  };
  ConservationReport check_conservation() const;

  /// One process kill with the killer's decision inputs captured at the
  /// moment of the decision — the observation record the lmkd-ordering
  /// oracle (src/check) replays the band rules against. Not serialized:
  /// audits are observations, like the tracer, not simulation state.
  struct KillAudit {
    enum class Reason : std::uint8_t { Lmkd, Oom, External };
    sim::Time at = 0;
    ProcessId pid = 0;
    int oom_adj = 0;            ///< victim's band at kill time
    Reason reason = Reason::External;
    int min_adj = 0;            ///< band floor the killer used
    int max_killable_adj = -1;  ///< highest killable adj alive at decision (-1 none)
    double pressure = 0.0;      ///< pressure_P() at decision
    Pages available = 0;        ///< available_pages() at decision
    Pages zram_stored = 0;
    /// The deciding policy — replay-bisection divergence reports name it.
    std::string policy_name = "baseline";
  };
  const std::vector<KillAudit>& kill_audits() const noexcept { return kill_audits_; }

  /// Serialize pools, pressure state, vmstat, the process registry and
  /// parked allocation waiters (ids/sizes only — their completion
  /// callbacks are closures and replay-reconstructed, DESIGN.md §10).
  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;

 private:
  struct ReclaimOutcome {
    Pages scanned = 0;
    Pages freed_now = 0;     // immediately available (clean file, zram net)
    Pages writeback = 0;     // dirty pages queued for writeback
    double cpu_refus = 0.0;  // scan + compression work
  };

  bool scheduled() const noexcept { return scheduler_ != nullptr; }

  /// Core slow/fast allocation path: obtain `pages` of free memory.
  void acquire_pages(Pages pages, ProcessId pid, sched::ThreadId tid,
                     std::function<void(bool)> done);
  void direct_reclaim(Pages pages, ProcessId pid, sched::ThreadId tid, int rounds_left,
                      sim::Time started, std::function<void(bool)> done);
  void park_waiter(Pages pages, ProcessId pid, sched::ThreadId tid, sim::Time started,
                   std::function<void(bool)> done);
  void pump_waiters();
  void fault_anon_pages(ProcessId pid, sched::ThreadId tid, Pages remaining,
                        std::function<void()> next);
  void fault_file_pages(ProcessId pid, sched::ThreadId tid, Pages remaining, AllocCallback done);

  /// Ask the policy what one scan batch reclaims, apply the plan's
  /// instantly-free part, and submit writeback I/O.
  ReclaimOutcome run_reclaim_batch(bool kswapd);
  void record_pressure(const ReclaimOutcome& outcome);
  /// Recompute the cached zRAM physical footprint from the policy.
  /// Called after every zram_stored_ mutation so free_pages() stays a
  /// virtual-free pure arithmetic hot path.
  void refresh_zram_physical() noexcept;

  void wake_kswapd();
  void kswapd_step();
  void kswapd_sleep();
  void immediate_reclaim_to_high();

  void maybe_activate_lmkd();
  void lmkd_do_kill();
  int lmkd_min_adj() const noexcept;

  void update_pressure_level();
  void free_process_pages(ProcessId pid);
  /// Common kill path; records a KillAudit with the caller's decision
  /// inputs before the victim's pages are freed.
  void kill_with_audit(ProcessId pid, KillAudit::Reason reason, int min_adj);

  sim::Engine& engine_;
  MemoryConfig config_;
  sched::Scheduler* scheduler_ = nullptr;   // null in Immediate mode
  storage::StorageDevice* storage_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  std::unique_ptr<MemPolicy> policy_;

  ProcessRegistry registry_;
  VmStat vmstat_;

  // Page pools (invariant: free = total - kernel - anon - file - zram).
  Pages anon_pool_ = 0;
  Pages file_clean_ = 0;
  Pages file_dirty_ = 0;
  Pages dirty_in_flight_ = 0;  // subset of file_dirty_ being written back
  Pages zram_stored_ = 0;      // uncompressed pages stored in zRAM
  Pages zram_physical_ = 0;    // cached policy_->reclaim().zram_physical(zram_stored_)

  double pressure_ema_ = 0.0;
  sim::Time last_pressure_sample_ = 0;
  /// pressure_P() memo keyed on every input it reads; never serialized.
  struct PressureMemo {
    bool valid = false;
    sim::Time now = 0;
    sim::Time sample = 0;
    std::uint64_t ema_bits = 0;
    double value = 0.0;
  };
  mutable PressureMemo pressure_memo_;
  PressureLevel level_ = PressureLevel::Normal;

  sched::ThreadId kswapd_tid_ = 0;
  sched::ThreadId lmkd_tid_ = 0;
  bool kswapd_active_ = false;
  bool kswapd_running_ = false;  // a batch is in flight on the thread
  bool immediate_reclaiming_ = false;
  bool lmkd_busy_ = false;
  sim::Time last_lmkd_kill_ = -sim::hours(1);

  struct Waiter {
    std::uint64_t id = 0;
    Pages pages = 0;
    ProcessId pid = 0;
    sched::ThreadId tid = 0;
    sim::Time started = 0;
    std::function<void(bool)> done;
  };
  std::deque<Waiter> waiters_;
  std::uint64_t next_waiter_id_ = 1;
  bool pumping_ = false;

  void oom_check(std::uint64_t waiter_id);
  /// Flat-event trampolines (engine hot path): the OOM watchdog re-arms
  /// per parked waiter and kswapd's step loop re-enters per batch.
  static void on_oom_check(void* ctx, std::uint64_t waiter_id);
  static void on_kswapd_step(void* ctx, std::uint64_t);

  std::vector<TrimListener> trim_listeners_;
  std::vector<KillAudit> kill_audits_;
};

}  // namespace mvqoe::mem
