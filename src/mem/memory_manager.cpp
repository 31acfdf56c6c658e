#include "mem/memory_manager.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <climits>
#include <cmath>
#include <memory>

#include "snapshot/digest.hpp"

namespace mvqoe::mem {

namespace {

/// Largest single internal allocation step. Public allocations are
/// chunked so a big request can always be satisfied incrementally as
/// reclaim makes progress (and so one request can never demand more
/// headroom than the high watermark provides).
constexpr Pages kAllocChunk = 1024;  // 4 MiB

/// Storage read batching for refaults: pages per I/O request.
constexpr Pages kReadBatch = 64;  // 256 KiB

}  // namespace

const char* to_string(PressureLevel level) noexcept {
  switch (level) {
    case PressureLevel::Normal: return "Normal";
    case PressureLevel::Moderate: return "Moderate";
    case PressureLevel::Low: return "Low";
    case PressureLevel::Critical: return "Critical";
  }
  return "?";
}

MemoryManager::MemoryManager(sim::Engine& engine, MemoryConfig config,
                             sched::Scheduler& scheduler, storage::StorageDevice& storage,
                             trace::Tracer& tracer, const MemPolicySpec& policy)
    : engine_(engine),
      config_(config),
      scheduler_(&scheduler),
      storage_(&storage),
      tracer_(&tracer),
      policy_(make_mem_policy(policy, config)) {
  policy_->reclaim().attach_scheduler(scheduler_);
  sched::ThreadSpec kswapd;
  kswapd.name = "kswapd0";
  kswapd.pid = 1;
  kswapd.process_name = "kernel";
  kswapd.sched_class = sched::SchedClass::Fair;
  kswapd.priority = 0;  // same weight as foreground threads (paper §5)
  kswapd_tid_ = scheduler_->create_thread(kswapd);

  sched::ThreadSpec lmkd;
  lmkd.name = "lmkd";
  lmkd.pid = 2;
  lmkd.process_name = "lmkd";
  lmkd.sched_class = sched::SchedClass::Fair;
  lmkd.priority = -4;  // slightly boosted userspace daemon
  lmkd_tid_ = scheduler_->create_thread(lmkd);
}

MemoryManager::MemoryManager(sim::Engine& engine, MemoryConfig config,
                             const MemPolicySpec& policy)
    : engine_(engine), config_(config), policy_(make_mem_policy(policy, config)) {}

Pages MemoryManager::free_pages() const noexcept {
  const Pages used =
      config_.kernel_reserved + anon_pool_ + file_clean_ + file_dirty_ + zram_physical_;
  return std::max<Pages>(0, config_.total - used);
}

void MemoryManager::refresh_zram_physical() noexcept {
  zram_physical_ = policy_->reclaim().zram_physical(zram_stored_);
}

Pages MemoryManager::available_pages() const noexcept {
  return free_pages() + file_clean_ + file_dirty_;
}

double MemoryManager::utilization() const noexcept {
  return 1.0 - static_cast<double>(available_pages()) / static_cast<double>(config_.total);
}

// --- Process lifecycle -----------------------------------------------------

ProcessMem& MemoryManager::register_process(ProcessId pid, std::string name, int oom_adj,
                                            std::function<void()> on_kill) {
  ProcessMem& process = registry_.add(pid, std::move(name), oom_adj, std::move(on_kill));
  update_pressure_level();
  return process;
}

void MemoryManager::free_process_pages(ProcessId pid) {
  const ProcessRegistry::FreedPages freed = registry_.remove(pid);
  anon_pool_ -= freed.anon;
  file_clean_ -= freed.file;
  zram_stored_ -= freed.swapped;
  if (freed.swapped > 0) policy_->reclaim().note_swap_release(pid, freed.swapped);
  refresh_zram_physical();
  assert(anon_pool_ >= 0 && file_clean_ >= 0 && zram_stored_ >= 0);
  // Fail any allocation parked on behalf of the dead process.
  for (auto& waiter : waiters_) {
    if (waiter.pid == pid && waiter.done) {
      engine_.schedule(0, [done = std::move(waiter.done)] { done(false); });
      waiter.done = nullptr;
    }
  }
  pump_waiters();
  update_pressure_level();
}

void MemoryManager::exit_process(ProcessId pid) {
  if (!registry_.alive(pid)) return;
  if (scheduler_ != nullptr) scheduler_->terminate_process(pid);
  free_process_pages(pid);
}

void MemoryManager::kill_process(ProcessId pid) {
  kill_with_audit(pid, KillAudit::Reason::External, INT_MAX);
}

void MemoryManager::kill_with_audit(ProcessId pid, KillAudit::Reason reason, int min_adj) {
  const ProcessMem* process = registry_.find(pid);
  if (process == nullptr || !process->alive) return;
  const int adj = process->oom_adj;
  {
    KillAudit audit;
    audit.at = engine_.now();
    audit.pid = pid;
    audit.oom_adj = adj;
    audit.reason = reason;
    audit.min_adj = min_adj;
    audit.policy_name = policy_->name();
    for (const ProcessMem* p : registry_.all()) {
      if (p->alive && p->killable) audit.max_killable_adj = std::max(audit.max_killable_adj, p->oom_adj);
    }
    audit.pressure = pressure_P();
    audit.available = available_pages();
    audit.zram_stored = zram_stored_;
    kill_audits_.push_back(audit);
  }
  std::function<void()> on_kill = process->on_kill;
  ++vmstat_.kills_lmkd;
  if (tracer_ != nullptr) {
    tracer_->instant(trace::InstantKind::ProcessKilled, engine_.now(), 0, adj);
  }
  if (scheduler_ != nullptr) scheduler_->terminate_process(pid);
  free_process_pages(pid);
  if (on_kill) engine_.schedule(0, std::move(on_kill));
}

void MemoryManager::set_oom_adj(ProcessId pid, int adj) {
  registry_.set_oom_adj(pid, adj);
  update_pressure_level();
}

void MemoryManager::touch_lru(ProcessId pid) { registry_.touch(pid); }

void MemoryManager::set_hot_pages(ProcessId pid, Pages hot) {
  if (ProcessMem* process = registry_.find(pid)) {
    process->hot_pages =
        std::clamp<Pages>(hot, 0, process->anon_resident + process->anon_swapped);
  }
}

// --- Allocation core -------------------------------------------------------

void MemoryManager::acquire_pages(Pages pages, ProcessId pid, sched::ThreadId tid,
                                  std::function<void(bool)> done) {
  assert(pages >= 0);
  if (free_pages() - pages >= config_.watermark_min) {
    done(true);
    return;
  }
  ++vmstat_.direct_reclaim_entries;
  wake_kswapd();
  direct_reclaim(pages, pid, tid, config_.direct_reclaim_rounds, engine_.now(), std::move(done));
}

void MemoryManager::direct_reclaim(Pages pages, ProcessId pid, sched::ThreadId tid,
                                   int rounds_left, sim::Time started,
                                   std::function<void(bool)> done) {
  if (free_pages() - pages >= config_.watermark_min) {
    if (tracer_ != nullptr) {
      tracer_->instant(trace::InstantKind::DirectReclaim, engine_.now(), tid,
                       engine_.now() - started);
    }
    done(true);
    return;
  }
  if (rounds_left <= 0) {
    park_waiter(pages, pid, tid, started, std::move(done));
    return;
  }

  const ReclaimOutcome outcome = run_reclaim_batch(/*kswapd=*/false);
  vmstat_.pgscan_direct += static_cast<std::uint64_t>(outcome.scanned);
  vmstat_.pgsteal_direct += static_cast<std::uint64_t>(outcome.freed_now + outcome.writeback);
  record_pressure(outcome);
  update_pressure_level();
  maybe_activate_lmkd();

  auto next = [this, pages, pid, tid, rounds_left, started, done = std::move(done)]() mutable {
    direct_reclaim(pages, pid, tid, rounds_left - 1, started, std::move(done));
  };
  if (scheduled() && tid != 0 && scheduler_->exists(tid)) {
    // The allocating thread itself burns the scan/compress CPU — the
    // §2 direct-reclaim stall, happening on (e.g.) a decoder thread.
    scheduler_->run_work(tid, outcome.cpu_refus, std::move(next));
  } else {
    next();
  }
}

void MemoryManager::park_waiter(Pages pages, ProcessId pid, sched::ThreadId tid,
                                sim::Time started, std::function<void(bool)> done) {
  // The thread now blocks until writeback or an lmkd kill frees memory
  // (paper §2: direct reclaim "often requires disk I/O ... or wait for
  // lmkd to kill a process").
  if (scheduled() && tid != 0 && scheduler_->exists(tid) && scheduler_->is_idle(tid)) {
    scheduler_->mark_blocked_io(tid);
  }
  const std::uint64_t id = next_waiter_id_++;
  waiters_.push_back(Waiter{id, pages, pid, tid, started, std::move(done)});
  maybe_activate_lmkd();
  engine_.schedule_flat(config_.oom_kill_timeout, &MemoryManager::on_oom_check, this, id);
}

void MemoryManager::oom_check(std::uint64_t waiter_id) {
  // Still parked after the timeout? The kernel OOM killer steps in and
  // kills the highest-score victim — possibly the allocating process
  // itself when nothing lower-priority is left.
  for (const Waiter& waiter : waiters_) {
    if (waiter.id != waiter_id || waiter.done == nullptr) continue;
    // Prefer background victims; the foreground dies only when nothing
    // else is left (classic OOM-killer escalation). The OOM killer is
    // mechanism, not policy: it always takes the highest-score victim.
    int floor_used = policy_->charter().background_adj_floor;
    std::optional<ProcessId> victim = registry_.pick_victim(floor_used);
    if (!victim.has_value()) {
      floor_used = OomAdj::kForeground;
      victim = registry_.pick_victim(floor_used);
    }
    if (victim.has_value()) {
      kill_with_audit(*victim, KillAudit::Reason::Oom, floor_used);
      last_lmkd_kill_ = engine_.now();
    }
    // Re-arm in case the kill did not free enough (or no victim existed).
    for (const Waiter& again : waiters_) {
      if (again.id == waiter_id && again.done != nullptr) {
        engine_.schedule_flat(config_.oom_kill_timeout, &MemoryManager::on_oom_check, this,
                              waiter_id);
        break;
      }
    }
    return;
  }
}

void MemoryManager::pump_waiters() {
  if (pumping_) return;
  pumping_ = true;
  while (!waiters_.empty()) {
    Waiter& front = waiters_.front();
    if (front.done == nullptr) {  // cancelled by process death
      waiters_.pop_front();
      continue;
    }
    if (free_pages() - front.pages < config_.watermark_min) break;
    Waiter waiter = std::move(front);
    waiters_.pop_front();
    if (tracer_ != nullptr) {
      tracer_->instant(trace::InstantKind::DirectReclaim, engine_.now(), waiter.tid,
                       engine_.now() - waiter.started);
    }
    waiter.done(true);
  }
  pumping_ = false;
}

void MemoryManager::alloc_anon(ProcessId pid, Pages pages, sched::ThreadId tid,
                               AllocCallback done) {
  if (!registry_.alive(pid) || pages < 0) {
    if (done) done(false);
    return;
  }
  if (pages == 0) {
    if (done) done(true);
    return;
  }
  const Pages chunk = std::min(pages, kAllocChunk);
  acquire_pages(chunk, pid, tid, [this, pid, pages, chunk, tid, done = std::move(done)](bool ok) mutable {
    ProcessMem* process = registry_.find(pid);
    if (!ok || process == nullptr) {
      if (done) done(false);
      return;
    }
    process->anon_resident += chunk;
    anon_pool_ += chunk;
    if (free_pages() < config_.watermark_low) wake_kswapd();
    update_pressure_level();
    if (pages - chunk > 0) {
      alloc_anon(pid, pages - chunk, tid, std::move(done));
    } else if (done) {
      done(true);
    }
  });
}

void MemoryManager::free_anon(ProcessId pid, Pages pages) {
  ProcessMem* process = registry_.find(pid);
  if (process == nullptr || pages <= 0) return;
  // Free resident pages first, then swapped.
  const Pages from_resident = std::min(pages, process->anon_resident);
  process->anon_resident -= from_resident;
  anon_pool_ -= from_resident;
  const Pages from_swap = std::min(pages - from_resident, process->anon_swapped);
  process->anon_swapped -= from_swap;
  zram_stored_ -= from_swap;
  if (from_swap > 0) policy_->reclaim().note_swap_release(pid, from_swap);
  refresh_zram_physical();
  pump_waiters();
  update_pressure_level();
}

void MemoryManager::map_file(ProcessId pid, Pages pages, sched::ThreadId tid,
                             AllocCallback done) {
  if (!registry_.alive(pid) || pages < 0) {
    if (done) done(false);
    return;
  }
  if (pages == 0) {
    if (done) done(true);
    return;
  }
  const Pages chunk = std::min(pages, kAllocChunk);
  acquire_pages(chunk, pid, tid, [this, pid, pages, chunk, tid, done = std::move(done)](bool ok) mutable {
    ProcessMem* process = registry_.find(pid);
    if (!ok || process == nullptr) {
      if (done) done(false);
      return;
    }
    process->file_resident += chunk;
    process->file_working_set += chunk;
    file_clean_ += chunk;
    vmstat_.pgpgin += static_cast<std::uint64_t>(chunk);
    if (free_pages() < config_.watermark_low) wake_kswapd();
    update_pressure_level();
    auto continue_rest = [this, pid, pages, chunk, tid, done = std::move(done)]() mutable {
      if (pages - chunk > 0) {
        map_file(pid, pages - chunk, tid, std::move(done));
      } else if (done) {
        done(true);
      }
    };
    if (scheduled()) {
      // Read the mapped pages from storage.
      if (tid != 0 && scheduler_->exists(tid) && scheduler_->is_idle(tid)) {
        scheduler_->mark_blocked_io(tid);
      }
      storage_->submit(storage::IoRequest{false, static_cast<std::uint64_t>(bytes_from_pages(chunk)),
                                          std::move(continue_rest)});
    } else {
      continue_rest();
    }
  });
}

void MemoryManager::unmap_file(ProcessId pid, Pages pages) {
  ProcessMem* process = registry_.find(pid);
  if (process == nullptr || pages <= 0) return;
  const Pages take = std::min(pages, process->file_resident);
  process->file_resident -= take;
  file_clean_ -= take;
  process->file_working_set = std::max<Pages>(0, process->file_working_set - pages);
  pump_waiters();
  update_pressure_level();
}

void MemoryManager::dirty_file(Pages pages) {
  if (pages <= 0) return;
  // Dirty data is buffered unconditionally (writers are throttled by
  // reclaim later, not at this call).
  file_dirty_ += pages;
  if (free_pages() < config_.watermark_low) wake_kswapd();
  update_pressure_level();
}

void MemoryManager::touch_working_set(ProcessId pid, sched::ThreadId tid, Pages anon_touch,
                                      Pages file_touch, AllocCallback done) {
  ProcessMem* process = registry_.find(pid);
  if (process == nullptr) {
    if (done) done(false);
    return;
  }
  registry_.touch(pid);

  // Fault model: the process touches its *hot* set, which reclaim mostly
  // protects — so faults come from (a) the hard shortfall when resident
  // memory no longer covers the touched set, plus (b) an imperfect-LRU
  // leak: a few percent of touches land on pages the kernel guessed
  // wrong about and compressed anyway.
  constexpr double kAnonLeak = 0.35;
  Pages anon_faults = 0;
  const Pages anon_total = process->anon_resident + process->anon_swapped;
  if (anon_touch > 0 && process->anon_swapped > 0 && anon_total > 0) {
    const Pages shortfall = std::max<Pages>(0, anon_touch - process->anon_resident);
    // Leak scales with the swapped *fraction*: lightly-swapped processes
    // rarely trip over a compressed page; deeply-swapped ones constantly.
    const double swap_fraction =
        static_cast<double>(process->anon_swapped) / static_cast<double>(anon_total);
    const Pages leak =
        static_cast<Pages>(kAnonLeak * swap_fraction * static_cast<double>(anon_touch));
    anon_faults = std::min(process->anon_swapped, shortfall + leak);
  }
  // File refaults: evicted working-set share, damped by the same
  // imperfect-LRU consideration (the kernel's workingset protection keeps
  // most of the active file list resident until memory is truly tight).
  constexpr double kFileLeak = 0.30;
  Pages file_refaults = 0;
  if (file_touch > 0 && process->file_working_set > 0) {
    const double resident_fraction =
        std::min(1.0, static_cast<double>(process->file_resident) /
                          static_cast<double>(process->file_working_set));
    const Pages touched = std::min(file_touch, process->file_working_set);
    file_refaults = static_cast<Pages>(
        std::llround(kFileLeak * static_cast<double>(touched) * (1.0 - resident_fraction)));
    file_refaults = std::min(file_refaults, process->file_working_set - process->file_resident);
  }

  auto do_file_stage = [this, pid, tid, file_refaults, done = std::move(done)]() mutable {
    fault_file_pages(pid, tid, file_refaults, std::move(done));
  };
  fault_anon_pages(pid, tid, anon_faults, std::move(do_file_stage));
}

void MemoryManager::fault_anon_pages(ProcessId pid, sched::ThreadId tid, Pages remaining,
                                     std::function<void()> next) {
  ProcessMem* process = registry_.find(pid);
  if (process == nullptr || remaining <= 0 || process->anon_swapped <= 0) {
    next();
    return;
  }
  // Decompress a chunk from zRAM on the faulting thread, backed by a page
  // allocation for the decompressed copies.
  const Pages chunk = std::min({remaining, process->anon_swapped, kAllocChunk});
  auto apply = [this, pid, tid, chunk, remaining, next = std::move(next)]() mutable {
    acquire_pages(chunk, pid, 0, [this, pid, tid, chunk, remaining,
                                  next = std::move(next)](bool ok) mutable {
      ProcessMem* process = registry_.find(pid);
      if (ok && process != nullptr) {
        const Pages take = std::min(chunk, process->anon_swapped);
        process->anon_swapped -= take;
        process->anon_resident += take;
        zram_stored_ -= take;
        anon_pool_ += take;
        if (take > 0) policy_->reclaim().note_swap_release(pid, take);
        refresh_zram_physical();
        vmstat_.pswpin += static_cast<std::uint64_t>(take);
        update_pressure_level();
        fault_anon_pages(pid, tid, remaining - chunk, std::move(next));
      } else {
        next();
      }
    });
  };
  if (scheduled() && tid != 0 && scheduler_->exists(tid)) {
    scheduler_->run_work(tid, static_cast<double>(chunk) * config_.decompress_cpu_refus,
                         std::move(apply));
  } else {
    apply();
  }
}

void MemoryManager::fault_file_pages(ProcessId pid, sched::ThreadId tid, Pages remaining,
                                     AllocCallback done) {
  ProcessMem* process = registry_.find(pid);
  if (process == nullptr) {
    if (done) done(false);
    return;
  }
  if (remaining <= 0) {
    if (done) done(true);
    return;
  }
  // Page the evicted file pages back in chunk by chunk: allocate cache
  // pages, then read from storage in kReadBatch batches (each batch = one
  // mmcqd request = one potential preemption of a video thread).
  const Pages chunk = std::min(remaining, kAllocChunk);
  acquire_pages(chunk, pid, tid, [this, pid, tid, chunk, remaining,
                                  done = std::move(done)](bool ok) mutable {
    ProcessMem* process = registry_.find(pid);
    if (!ok || process == nullptr) {
      if (done) done(false);
      return;
    }
    process->file_resident += chunk;
    file_clean_ += chunk;
    vmstat_.pgpgin += static_cast<std::uint64_t>(chunk);
    update_pressure_level();
    auto continue_rest = [this, pid, tid, chunk, remaining, done = std::move(done)]() mutable {
      fault_file_pages(pid, tid, remaining - chunk, std::move(done));
    };
    if (!scheduled()) {
      continue_rest();
      return;
    }
    const Pages batches = (chunk + kReadBatch - 1) / kReadBatch;
    auto pending = std::make_shared<Pages>(batches);
    auto finish = std::make_shared<std::function<void()>>(std::move(continue_rest));
    auto reads = [this, batches, chunk, pending, finish] {
      for (Pages i = 0; i < batches; ++i) {
        const Pages pages_in_batch = std::min<Pages>(kReadBatch, chunk - i * kReadBatch);
        storage_->submit(storage::IoRequest{
            false, static_cast<std::uint64_t>(bytes_from_pages(pages_in_batch)),
            [pending, finish] {
              if (--*pending == 0 && *finish) (*finish)();
            }});
      }
    };
    // The fault path itself costs CPU on the faulting thread before the
    // reads are issued.
    if (tid != 0 && scheduler_->exists(tid) && scheduler_->is_idle(tid)) {
      scheduler_->run_work(tid, static_cast<double>(chunk) * config_.file_fault_cpu_refus,
                           [this, tid, reads = std::move(reads)]() mutable {
                             if (scheduler_->exists(tid) && scheduler_->is_idle(tid)) {
                               scheduler_->mark_blocked_io(tid);
                             }
                             reads();
                           });
    } else {
      reads();
    }
  });
}

// --- Reclaim ----------------------------------------------------------------

MemoryManager::ReclaimOutcome MemoryManager::run_reclaim_batch(bool kswapd) {
  // The policy plans the batch against a read-only pool view; the
  // mechanism applies the plan so page accounting (and its conservation
  // audit) stays in one place. What a batch takes — which processes,
  // which pool, which zRAM tier, at what CPU cost — is entirely the
  // policy's call (DESIGN.md §16).
  ReclaimView view{registry_, available_pages(), zram_stored_,
                   file_dirty_, dirty_in_flight_,  kswapd};
  const ReclaimPlan plan = policy_->reclaim().plan_batch(view);

  ReclaimOutcome outcome;
  outcome.scanned = plan.scanned;

  // 1. Drop clean file pages.
  for (const ReclaimPlan::FileTake& take : plan.file_drops) {
    take.process->file_resident -= take.pages;
    file_clean_ -= take.pages;
    outcome.freed_now += take.pages;
  }

  // 2. Compress anonymous pages into zRAM. Each take is charged the
  // store's physical growth (per the policy's tier ratios) against the
  // freed total, exactly as the pre-policy manager did per process.
  for (const ReclaimPlan::CompressTake& take : plan.compress) {
    const Pages physical_before = zram_physical_;
    take.process->anon_resident -= take.pages;
    take.process->anon_swapped += take.pages;
    anon_pool_ -= take.pages;
    zram_stored_ += take.pages;
    policy_->reclaim().note_swap_out(take.process->pid, take.pages, take.tier);
    refresh_zram_physical();
    outcome.freed_now += take.pages - (zram_physical_ - physical_before);
    vmstat_.pswpout += static_cast<std::uint64_t>(take.pages);
  }

  // 3. Write back dirty file pages through the storage stack.
  if (plan.writeback > 0) {
    const Pages writeback = plan.writeback;
    outcome.writeback = writeback;
    if (scheduled()) {
      dirty_in_flight_ += writeback;
      storage_->submit(storage::IoRequest{
          true, static_cast<std::uint64_t>(bytes_from_pages(writeback)), [this, writeback] {
            dirty_in_flight_ -= writeback;
            file_dirty_ -= writeback;
            vmstat_.pgpgout += static_cast<std::uint64_t>(writeback);
            pump_waiters();
            update_pressure_level();
          }});
    } else {
      file_dirty_ -= writeback;
      vmstat_.pgpgout += static_cast<std::uint64_t>(writeback);
    }
  }

  outcome.cpu_refus = plan.cpu_refus;
  return outcome;
}

double MemoryManager::pressure_P() const noexcept {
  // Called several times per batch at one instant: memoise on the full
  // input (the EMA compared bitwise, so even a sign-of-zero change misses).
  const sim::Time now = engine_.now();
  const auto ema_bits = std::bit_cast<std::uint64_t>(pressure_ema_);
  if (pressure_memo_.valid && pressure_memo_.now == now &&
      pressure_memo_.sample == last_pressure_sample_ && pressure_memo_.ema_bits == ema_bits) {
    return pressure_memo_.value;
  }
  const double age_s = sim::to_seconds(now - last_pressure_sample_);
  // Half-life of 1.5 s once scanning stops.
  const double decay = std::pow(0.5, std::max(0.0, age_s) / 1.5);
  pressure_memo_ = {true, now, last_pressure_sample_, ema_bits, pressure_ema_ * decay};
  return pressure_memo_.value;
}

void MemoryManager::record_pressure(const ReclaimOutcome& outcome) {
  if (outcome.scanned <= 0) return;
  // Fold the decay-to-date in before mixing the new sample.
  pressure_ema_ = pressure_P();
  last_pressure_sample_ = engine_.now();
  const double reclaimed = static_cast<double>(outcome.freed_now + outcome.writeback);
  const double batch_p =
      std::clamp((1.0 - reclaimed / static_cast<double>(outcome.scanned)) * 100.0, 0.0, 100.0);
  pressure_ema_ = config_.pressure_ema_alpha * batch_p +
                  (1.0 - config_.pressure_ema_alpha) * pressure_ema_;
}

void MemoryManager::wake_kswapd() {
  if (!scheduled()) {
    // Immediate mode: reclaim applies synchronously, and must run
    // *before* lmkd eligibility is re-evaluated — instant reclaim stands
    // in for the kswapd work that, on a real device, keeps free memory
    // above the minfree levels most of the time.
    if (!kswapd_active_) ++vmstat_.kswapd_wakeups;
    kswapd_active_ = true;
    if (!immediate_reclaiming_) {
      immediate_reclaiming_ = true;
      immediate_reclaim_to_high();
      immediate_reclaiming_ = false;
    }
    update_pressure_level();
    return;
  }
  if (kswapd_active_) return;
  kswapd_active_ = true;
  ++vmstat_.kswapd_wakeups;
  update_pressure_level();
  if (!kswapd_running_) {
    kswapd_running_ = true;
    // Enter the step loop from a fresh event so the waker's call stack
    // stays shallow.
    engine_.schedule_flat(0, &MemoryManager::on_kswapd_step, this);
  }
}

void MemoryManager::on_oom_check(void* ctx, std::uint64_t waiter_id) {
  static_cast<MemoryManager*>(ctx)->oom_check(waiter_id);
}

void MemoryManager::on_kswapd_step(void* ctx, std::uint64_t) {
  static_cast<MemoryManager*>(ctx)->kswapd_step();
}

void MemoryManager::kswapd_step() {
  if (free_pages() >= config_.watermark_high) {
    kswapd_sleep();
    return;
  }
  const ReclaimOutcome outcome = run_reclaim_batch(/*kswapd=*/true);
  vmstat_.pgscan_kswapd += static_cast<std::uint64_t>(outcome.scanned);
  vmstat_.pgsteal_kswapd += static_cast<std::uint64_t>(outcome.freed_now + outcome.writeback);
  record_pressure(outcome);
  pump_waiters();
  update_pressure_level();
  maybe_activate_lmkd();

  if (outcome.freed_now <= 0 && outcome.writeback <= 0) {
    if (free_pages() >= config_.watermark_low) {
      // Above the low watermark with nothing reclaimable: give up until
      // woken again (hammering an unreclaimable LRU from the comfortable
      // band would just report phantom pressure).
      kswapd_sleep();
      return;
    }
    // Genuinely low: wait for writeback / lmkd progress and retry.
    scheduler_->sleep_for(kswapd_tid_, config_.kswapd_backoff, [this] { kswapd_step(); });
    return;
  }
  scheduler_->run_work(kswapd_tid_, outcome.cpu_refus, [this] { kswapd_step(); });
}

void MemoryManager::kswapd_sleep() {
  kswapd_active_ = false;
  kswapd_running_ = false;
  update_pressure_level();
}

void MemoryManager::immediate_reclaim_to_high() {
  int idle_rounds = 0;
  while (free_pages() < config_.watermark_high && idle_rounds < 2) {
    const ReclaimOutcome outcome = run_reclaim_batch(/*kswapd=*/true);
    vmstat_.pgscan_kswapd += static_cast<std::uint64_t>(outcome.scanned);
    vmstat_.pgsteal_kswapd += static_cast<std::uint64_t>(outcome.freed_now + outcome.writeback);
    record_pressure(outcome);
    maybe_activate_lmkd();
    idle_rounds = (outcome.freed_now <= 0 && outcome.writeback <= 0) ? idle_rounds + 1 : 0;
  }
  pump_waiters();
  if (free_pages() >= config_.watermark_high) kswapd_active_ = false;
  update_pressure_level();
}

// --- lmkd -------------------------------------------------------------------

int MemoryManager::lmkd_min_adj() const noexcept {
  // Shared replay logic: the same function the lmkd-ordering oracle
  // calls when it audits this decision, so live behavior and legality
  // rules cannot drift (kNoKillFloor == INT_MAX).
  return replay_kill_floor(policy_->charter(), pressure_P(), available_pages(), zram_stored_,
                           config_.zram_capacity);
}

void MemoryManager::maybe_activate_lmkd() {
  if (lmkd_min_adj() == INT_MAX) return;
  if (engine_.now() - last_lmkd_kill_ < policy_->charter().kill_cooldown) return;
  if (scheduled()) {
    if (lmkd_busy_) return;
    lmkd_busy_ = true;
    scheduler_->run_work(lmkd_tid_, config_.lmkd_kill_cpu_refus, [this] {
      lmkd_busy_ = false;
      lmkd_do_kill();
    });
  } else {
    lmkd_do_kill();
  }
}

void MemoryManager::lmkd_do_kill() {
  // Re-check: pressure may have eased while lmkd's selection ran.
  const int min_adj = lmkd_min_adj();
  if (min_adj == INT_MAX) return;
  const std::optional<ProcessId> victim = policy_->kill().pick_victim(registry_, min_adj);
  if (!victim.has_value()) return;
  last_lmkd_kill_ = engine_.now();
  kill_with_audit(*victim, KillAudit::Reason::Lmkd, min_adj);
  // A kill frees pages; give the pressure estimate credit so lmkd does
  // not machine-gun through the process list before the next scan batch
  // re-measures.
  pressure_ema_ *= 0.6;
  update_pressure_level();
}

// --- Pressure level ----------------------------------------------------------

void MemoryManager::update_pressure_level() {
  // Android derives the memory-pressure state from the cached/empty
  // process count in the LRU (footnote 6: because the system aggressively
  // re-caches processes, a shrinking cached list *is* the pressure
  // signal). The state therefore persists until respawns refill the LRU
  // — which is what gives the multi-second dwell times of Fig 6. A
  // failing-reclaim P estimate escalates straight to Critical.
  PressureLevel next = PressureLevel::Normal;
  if (pressure_P() >= config_.lmkd_foreground_threshold) {
    next = PressureLevel::Critical;
  } else {
    const int cached = registry_.cached_count();
    if (cached <= config_.trim_critical) {
      next = PressureLevel::Critical;
    } else if (cached <= config_.trim_low) {
      next = PressureLevel::Low;
    } else if (cached <= config_.trim_moderate) {
      next = PressureLevel::Moderate;
    }
  }
  // Pressure levels and lmkd eligibility share their inputs; re-evaluate
  // lmkd whenever the accounting moved (guarded by cooldown/busy inside).
  maybe_activate_lmkd();
  if (next == level_) return;
  level_ = next;
  if (tracer_ != nullptr) {
    tracer_->instant(trace::InstantKind::PressureState, engine_.now(), 0,
                     static_cast<std::int64_t>(next));
  }
  if (next != PressureLevel::Normal) {
    ++vmstat_.trim_signals[static_cast<std::size_t>(next)];
    if (tracer_ != nullptr) {
      tracer_->instant(trace::InstantKind::TrimSignal, engine_.now(), 0,
                       static_cast<std::int64_t>(next));
    }
  }
  for (const TrimListener& listener : trim_listeners_) listener(next);
}

void MemoryManager::subscribe_trim(TrimListener listener) {
  trim_listeners_.push_back(std::move(listener));
}

MemoryManager::ConservationReport MemoryManager::check_conservation() const {
  ConservationReport report;
  auto fail = [&report](std::string detail) {
    report.ok = false;
    if (report.detail.empty()) report.detail = std::move(detail);
  };
  Pages anon = 0;
  Pages swapped = 0;
  Pages file = 0;
  for (const ProcessMem* process : registry_.all()) {
    if (process->anon_resident < 0 || process->anon_swapped < 0 ||
        process->file_resident < 0 || process->file_working_set < 0) {
      fail("negative per-process page count (pid " + std::to_string(process->pid) + ")");
    }
    anon += process->anon_resident;
    swapped += process->anon_swapped;
    file += process->file_resident;
  }
  if (anon != anon_pool_) {
    fail("anon pool " + std::to_string(anon_pool_) + " != registry sum " + std::to_string(anon));
  }
  if (swapped != zram_stored_) {
    fail("zram stored " + std::to_string(zram_stored_) + " != registry sum " +
         std::to_string(swapped));
  }
  if (file != file_clean_) {
    fail("clean file pool " + std::to_string(file_clean_) + " != registry sum " +
         std::to_string(file));
  }
  if (file_dirty_ < 0 || dirty_in_flight_ < 0 || dirty_in_flight_ > file_dirty_) {
    fail("dirty writeback accounting (dirty " + std::to_string(file_dirty_) + ", in flight " +
         std::to_string(dirty_in_flight_) + ")");
  }
  if (zram_stored_ > config_.zram_capacity) fail("zram over capacity");
  if (zram_physical_ != policy_->reclaim().zram_physical(zram_stored_)) {
    fail("zram physical cache stale (" + std::to_string(zram_physical_) + " cached vs " +
         std::to_string(policy_->reclaim().zram_physical(zram_stored_)) + " recomputed)");
  }
  const Pages used =
      config_.kernel_reserved + anon_pool_ + file_clean_ + file_dirty_ + zram_physical_;
  if (used > config_.total) {
    fail("pools exceed physical memory by " + std::to_string(used - config_.total) + " pages");
  }
  return report;
}

void MemoryManager::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // section version
  registry_.save(w);
  w.i64(anon_pool_);
  w.i64(file_clean_);
  w.i64(file_dirty_);
  w.i64(dirty_in_flight_);
  w.i64(zram_stored_);
  w.f64(pressure_ema_);
  w.i64(last_pressure_sample_);
  w.u8(static_cast<std::uint8_t>(level_));
  w.u64(kswapd_tid_);
  w.u64(lmkd_tid_);
  w.b(kswapd_active_);
  w.b(kswapd_running_);
  w.b(lmkd_busy_);
  w.i64(last_lmkd_kill_);
  w.u64(vmstat_.pgscan_kswapd);
  w.u64(vmstat_.pgsteal_kswapd);
  w.u64(vmstat_.pgscan_direct);
  w.u64(vmstat_.pgsteal_direct);
  w.u64(vmstat_.pswpout);
  w.u64(vmstat_.pswpin);
  w.u64(vmstat_.pgpgin);
  w.u64(vmstat_.pgpgout);
  w.u64(vmstat_.kswapd_wakeups);
  w.u64(vmstat_.direct_reclaim_entries);
  w.u64(vmstat_.kills_lmkd);
  for (const std::uint64_t signals : vmstat_.trim_signals) w.u64(signals);
  w.u64(next_waiter_id_);
  w.u64(waiters_.size());
  for (const Waiter& waiter : waiters_) {
    w.u64(waiter.id);
    w.i64(waiter.pages);
    w.u32(waiter.pid);
    w.u64(waiter.tid);
    w.i64(waiter.started);
  }
}

std::uint64_t MemoryManager::digest() const { return snapshot::state_digest(*this); }

}  // namespace mvqoe::mem
