// Event-driven multicore CPU scheduler.
//
// Models the two scheduling classes that matter for the paper's §5
// analysis:
//   * Realtime (RT): strict priority, FIFO within a priority level,
//     *immediately* preempts any Fair thread. The storage daemon `mmcqd`
//     runs here — this is the mechanism by which it "steals CPU time from
//     foreground processes" (paper §5, Table 5).
//   * Fair (CFS-like): per-core runqueues ordered by virtual runtime with
//     nice-derived weights and fixed timeslices. Foreground app threads
//     and `kswapd` both run here at the same weight, which is why they
//     "fairly share the CPU" (paper §5, Fig 13 discussion).
//
// Work model: CPU work is expressed in *reference microseconds* — the
// time the burst would take on a 1.0 GHz reference core. A core with
// frequency f GHz executes `w` reference-µs of work in `w / f` wall-µs.
// This lets one workload definition run across the heterogeneous devices
// the paper evaluates (Nokia 1 quad 1.1 GHz, Nexus 5 quad 2.33 GHz,
// Nexus 6P octa 4x1.55 + 4x2.0 GHz).
//
// Thread-state accounting matches the Perfetto taxonomy the paper uses:
// Runnable = woken, waiting for first dispatch; Runnable (Preempted) =
// involuntarily descheduled while still runnable. Preemption *records*
// (victim, preemptor, run-after-preempt, victim-wait: Table 5) are only
// emitted for wake-preemptions — i.e. a thread taking the CPU the moment
// it wakes, which in this model only RT threads do. This matches the
// paper's observation that the CPU is "almost never preempted for
// kswapd" while mmcqd preempts constantly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace mvqoe::sched {

using ThreadId = trace::ThreadId;
using ProcessId = trace::ProcessId;

enum class SchedClass : std::uint8_t { Realtime, Fair };

struct CoreConfig {
  double freq_ghz = 1.0;  // relative to the 1.0 GHz work reference
};

struct SchedulerConfig {
  std::vector<CoreConfig> cores;
  /// Fair-class timeslice. Linux CFS derives this dynamically; a fixed
  /// few-millisecond slice reproduces the same interleaving granularity.
  sim::Time timeslice = sim::msec(3);
  /// Cost charged (in reference-µs of the incoming thread's work) per
  /// context switch — models cache/TLB disturbance. Core migrations are
  /// charged `migration_cost` instead, which is larger; this is the knob
  /// behind the §7 "coordinated core allocation" discussion.
  double context_switch_cost_refus = 15.0;
  double migration_cost_refus = 60.0;
};

/// Affinity mask: bit i set = may run on core i. 0 means "all cores".
using AffinityMask = std::uint64_t;

struct ThreadSpec {
  std::string name;
  ProcessId pid = 0;
  std::string process_name;
  SchedClass sched_class = SchedClass::Fair;
  /// Realtime: priority, higher wins. Fair: nice value (-20..19, lower is
  /// heavier); foreground app threads and kswapd both use 0.
  int priority = 0;
  AffinityMask affinity = 0;
};

/// Per-thread counters exposed for ablation studies (§7: context-switch /
/// migration overhead of uncoordinated daemon scheduling).
struct ThreadCounters {
  std::uint64_t context_switches = 0;
  std::uint64_t migrations = 0;
  std::uint64_t preemptions_suffered = 0;
  double cpu_refus_consumed = 0.0;
};

class Scheduler {
 public:
  Scheduler(sim::Engine& engine, trace::Tracer& tracer, SchedulerConfig config);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a thread in the idle (Sleeping) state.
  ThreadId create_thread(const ThreadSpec& spec);

  /// Give an idle thread a CPU burst of `work_refus` reference-µs; it
  /// becomes runnable now and `on_complete` fires when the burst has been
  /// fully executed. The thread must not already be runnable or running.
  void run_work(ThreadId tid, double work_refus, std::function<void()> on_complete);

  /// Label an idle thread as blocked on I/O (accounting only; the thread
  /// stays descheduled until the next run_work). Must be idle.
  void mark_blocked_io(ThreadId tid);

  /// Convenience: idle thread sleeps until `engine.now() + delay`, then
  /// `on_wake` fires (typically calling run_work). Returns the timer id.
  sim::EventId sleep_for(ThreadId tid, sim::Time delay, std::function<void()> on_wake);

  /// Remove a thread permanently (process kill). Pending work is
  /// abandoned; its completion callback never fires.
  void terminate(ThreadId tid);
  /// Terminate every thread belonging to `pid`.
  void terminate_process(ProcessId pid);

  bool is_idle(ThreadId tid) const;
  bool exists(ThreadId tid) const;
  trace::ThreadState state(ThreadId tid) const;
  const ThreadCounters& counters(ThreadId tid) const;
  /// Owning process of a thread (hotness attribution in mem policies).
  ProcessId pid_of(ThreadId tid) const;
  std::size_t core_count() const noexcept { return cores_.size(); }
  /// Threads ever created; ids are dense starting at 1, so valid tids are
  /// exactly [1, thread_count()] (terminated ones included — check
  /// state()). Observation surface for the src/check scheduler oracle.
  std::size_t thread_count() const noexcept { return threads_.size(); }
  /// Weighted virtual runtime (reference-µs). Monotone non-decreasing for
  /// a thread's whole lifetime — the vruntime oracle's invariant.
  double vruntime(ThreadId tid) const;
  SchedClass sched_class(ThreadId tid) const;
  /// Core the thread is currently running on, or nullopt.
  std::optional<std::size_t> running_core(ThreadId tid) const;

  /// Change a thread's affinity mask (0 = all cores). Takes effect at the
  /// next scheduling decision for that thread.
  void set_affinity(ThreadId tid, AffinityMask mask);

  /// Uniformly scale every core's effective frequency (thermal throttling:
  /// scale < 1 slows the whole SoC). In-flight bursts are re-paced: work
  /// consumed so far is charged at the old speed and the remainder
  /// rescheduled at the new one.
  void set_speed_scale(double scale);
  double speed_scale() const noexcept { return speed_scale_; }

  /// Serialize per-thread and per-core scheduling state (vruntimes,
  /// runqueues, counters, in-flight stints). Doubles are emitted as bit
  /// patterns, so equal digests mean bit-equal state.
  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;

 private:
  struct Thread {
    ThreadSpec spec;
    trace::ThreadState state = trace::ThreadState::Created;
    double remaining_work = 0.0;  // reference-µs
    std::function<void()> on_complete;
    double vruntime = 0.0;  // weighted, in reference-µs
    double weight = 1.0;
    int core = -1;           // core currently running on, -1 otherwise
    int last_core = -1;      // for migration counting
    ThreadCounters counters;
    bool alive = true;
    // Pending Table-5 preemption record bookkeeping.
    std::int64_t pending_preemption = -1;  // index into pending_records_
  };

  struct Core {
    CoreConfig config;
    ThreadId running = trace::kNoThread;
    sim::Time run_start = 0;          // when current thread started this stint
    double run_start_work = 0.0;      // remaining work at stint start
    sim::EventId pending_event = sim::kInvalidEvent;
    std::deque<ThreadId> rt_queue;    // FIFO, kept sorted by priority desc
    std::vector<ThreadId> fair_queue; // unsorted; min-vruntime scan on pick
  };

  struct PendingPreemption {
    trace::PreemptionRecord record;
    bool run_filled = false;
    bool wait_filled = false;
  };

  Thread& thread(ThreadId tid);
  const Thread& thread(ThreadId tid) const;

  bool can_run_on(const Thread& t, std::size_t core) const;
  double weight_for_nice(int nice) const noexcept;
  /// Pick the core a waking thread should go to.
  std::size_t place_thread(const Thread& t) const;
  /// Put a runnable thread on a core's queue and trigger preemption checks.
  void enqueue(ThreadId tid, std::size_t core, bool preempt_check);
  /// Queue an RT thread behind every waiting thread of >= priority (the
  /// queue stays sorted by priority desc, FIFO within a priority).
  void insert_rt(Core& core, ThreadId tid);
  /// Choose and dispatch the next thread on `core` (assumes core idle).
  void dispatch(std::size_t core);
  /// Stop the thread currently running on `core`, charging consumed work.
  /// `next_state` is the state the thread transitions to.
  void deschedule(std::size_t core, trace::ThreadState next_state, ThreadId preemptor);
  /// Handle burst completion on `core`.
  void complete(std::size_t core);
  /// Handle timeslice expiry on `core`.
  void slice_expired(std::size_t core);
  /// Try to pull a runnable fair thread to the now-idle `core`.
  void steal_for(std::size_t core);
  void arm_core_event(std::size_t core);
  /// Flat-event trampoline for core timers (arg = core_idx << 1 | is_slice).
  static void on_core_event(void* ctx, std::uint64_t arg);
  double min_vruntime(const Core& core) const;

  void open_preemption(ThreadId victim, ThreadId preemptor);
  void note_started_running(ThreadId tid);
  void note_stopped_running(ThreadId tid, sim::Time ran_for);
  double effective_freq(const Core& core) const noexcept {
    return core.config.freq_ghz * speed_scale_;
  }

  sim::Engine& engine_;
  trace::Tracer& tracer_;
  SchedulerConfig config_;
  double speed_scale_ = 1.0;
  std::vector<Core> cores_;
  std::vector<Thread> threads_;  // index = tid - 1
  std::vector<PendingPreemption> pending_records_;
  // Map preemptor tid -> indices of pending records awaiting its run-stint
  // duration (filled when it stops running).
  std::unordered_map<ThreadId, std::vector<std::int64_t>> awaiting_run_;
  std::unordered_map<ThreadId, std::vector<std::int64_t>> awaiting_wait_;
};

}  // namespace mvqoe::sched
