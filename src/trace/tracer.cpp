#include "trace/tracer.hpp"

namespace mvqoe::trace {

const char* to_string(ThreadState s) noexcept {
  switch (s) {
    case ThreadState::Created: return "Created";
    case ThreadState::Running: return "Running";
    case ThreadState::Runnable: return "Runnable";
    case ThreadState::RunnablePreempted: return "Runnable (Preempted)";
    case ThreadState::Sleeping: return "Sleeping";
    case ThreadState::BlockedIo: return "Blocked I/O";
    case ThreadState::Terminated: return "Terminated";
  }
  return "?";
}

const char* to_string(InstantKind kind) noexcept {
  switch (kind) {
    case InstantKind::ProcessKilled: return "ProcessKilled";
    case InstantKind::ClientCrashed: return "ClientCrashed";
    case InstantKind::PressureState: return "PressureState";
    case InstantKind::TrimSignal: return "TrimSignal";
    case InstantKind::FramePresented: return "FramePresented";
    case InstantKind::FrameDropped: return "FrameDropped";
    case InstantKind::DirectReclaim: return "DirectReclaim";
    case InstantKind::SegmentDownloaded: return "SegmentDownloaded";
    case InstantKind::RungSwitch: return "RungSwitch";
    case InstantKind::LinkDown: return "LinkDown";
    case InstantKind::LinkUp: return "LinkUp";
    case InstantKind::LinkRateChange: return "LinkRateChange";
    case InstantKind::StorageDegraded: return "StorageDegraded";
    case InstantKind::StorageRestored: return "StorageRestored";
    case InstantKind::ThermalThrottle: return "ThermalThrottle";
    case InstantKind::ThermalRestored: return "ThermalRestored";
    case InstantKind::FaultKill: return "FaultKill";
    case InstantKind::SegmentRetry: return "SegmentRetry";
    case InstantKind::DownloadTimeout: return "DownloadTimeout";
    case InstantKind::SessionRelaunch: return "SessionRelaunch";
    case InstantKind::WatchdogViolation: return "WatchdogViolation";
  }
  return "?";
}

void Tracer::register_thread(const ThreadMeta& meta) { threads_[meta.tid] = meta; }

const ThreadMeta* Tracer::thread(ThreadId tid) const noexcept {
  const auto it = threads_.find(tid);
  return it == threads_.end() ? nullptr : &it->second;
}

void Tracer::state_change(ThreadId tid, sim::Time at, ThreadState next, ThreadId preemptor) {
  if (tid >= open_.size()) open_.resize(static_cast<std::size_t>(tid) + 1);
  OpenInterval& open = open_[tid];
  if (!open.seen) {
    open.seen = true;
    seen_order_.insert(tid);
  }
  if (open.open && at > open.begin) {
    intervals_.push_back(StateInterval{tid, open.begin, at, open.state, open.preemptor});
  }
  open.begin = at;
  open.state = next;
  open.preemptor = next == ThreadState::RunnablePreempted ? preemptor : kNoThread;
  open.open = next != ThreadState::Terminated;
}

void Tracer::preemption(const PreemptionRecord& rec) { preemptions_.push_back(rec); }

void Tracer::instant(InstantKind kind, sim::Time at, ThreadId tid, std::int64_t value) {
  instants_.push_back(InstantEvent{kind, at, tid, value});
}

void Tracer::counter(const std::string& name, sim::Time at, double value) {
  counters_.push_back(CounterSample{name, at, value});
}

void Tracer::finalize(sim::Time at) {
  for (const ThreadId tid : seen_order_) {
    OpenInterval& open = open_[tid];
    if (open.open && at > open.begin) {
      intervals_.push_back(StateInterval{tid, open.begin, at, open.state, open.preemptor});
      open.begin = at;
    }
  }
}

void Tracer::clear_events() {
  intervals_.clear();
  preemptions_.clear();
  instants_.clear();
  counters_.clear();
  open_.clear();
  seen_order_.clear();
}

}  // namespace mvqoe::trace
