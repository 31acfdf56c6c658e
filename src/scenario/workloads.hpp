// First-party Workload implementations (DESIGN.md §11): the video
// session, the organic background-app cohort, the synthetic pressure
// inducer and competing cross traffic — composable in any number per
// scenario.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pressure_inducer.hpp"
#include "core/run_result.hpp"
#include "core/testbed.hpp"
#include "core/workload.hpp"
#include "scenario/spec.hpp"
#include "stats/rng.hpp"

namespace mvqoe::scenario {

/// One video playback session. Blob sections VIDE/FALT for session 0 —
/// byte-compatible with the legacy experiment — and VIDn/FLTn for later
/// sessions (n = 1..9).
class VideoSessionWorkload final : public core::Workload {
 public:
  /// `index` is the session's position among the scenario's video
  /// workloads (drives snapshot tags and registry ordering keys);
  /// `platform` is pre-resolved via platform_for().
  VideoSessionWorkload(VideoWorkloadSpec spec, video::PlayerPlatform platform, std::size_t index);
  ~VideoSessionWorkload() override;

  std::string label() const override { return spec_.label; }
  void attach(core::Testbed& testbed) override;
  void start(core::Testbed& testbed) override;
  bool done() const override { return finished_; }
  void finalize(core::Testbed& testbed) override;
  mem::PressureLevel observed_level() const override { return mem::PressureLevel::Normal; }

  /// Retarget the video cell before start() (sweep groups).
  void set_cell(int height, int fps, std::uint64_t video_seed);

  /// Assemble the per-session result; valid after finalize().
  core::VideoRunResult result() const;

  video::VideoSession* session() noexcept { return session_.get(); }
  const video::VideoSession* session() const noexcept { return session_.get(); }
  fault::FaultInjector* injector() noexcept { return injector_.get(); }
  const VideoWorkloadSpec& spec() const noexcept { return spec_; }
  const video::SessionConfig& config() const noexcept { return config_; }
  sim::Time video_start() const noexcept { return video_start_; }

 private:
  VideoWorkloadSpec spec_;
  video::PlayerPlatform platform_;
  std::size_t index_;
  video::SessionConfig config_;
  std::unique_ptr<video::VideoSession> session_;
  std::unique_ptr<fault::FaultInjector> injector_;
  bool finished_ = false;
  sim::Time video_start_ = -1;
};

/// Organic background-app churn (paper §4.3): launch `count` top-free
/// apps before the players start; half keep working (and respawning
/// after lmkd kills) for the whole run. Owns no snapshot sections — its
/// state lives in the memory manager / activity manager / system
/// activity sections.
class BackgroundDutyWorkload final : public core::Workload {
 public:
  BackgroundDutyWorkload(std::string label, int count);

  std::string label() const override { return label_; }
  void attach(core::Testbed& testbed) override;
  void start(core::Testbed& testbed) override { (void)testbed; }
  bool done() const override { return true; }
  mem::PressureLevel observed_level() const override { return observed_; }

 private:
  std::string label_;
  int count_;
  mem::PressureLevel observed_ = mem::PressureLevel::Normal;
  // Owns the service-restart chain; callbacks hold weak refs so the
  // chain dies with the workload instead of leaking through a
  // shared_ptr cycle.
  std::shared_ptr<std::function<void(proc::AppSpec, bool)>> relaunch_;
};

/// MP-Simulator-style synthetic pressure (paper §4.1): allocate until
/// the target pressure signal arrives, then maintain it. Blob section
/// INDC for inducer 0 (legacy-compatible), INDn for later ones.
class PressureInducerWorkload final : public core::Workload {
 public:
  PressureInducerWorkload(std::string label, mem::PressureLevel target, std::size_t index);
  ~PressureInducerWorkload() override;

  std::string label() const override { return label_; }
  void attach(core::Testbed& testbed) override;
  void start(core::Testbed& testbed) override { (void)testbed; }
  bool done() const override { return true; }
  mem::PressureLevel observed_level() const override { return observed_; }

  core::PressureInducer* inducer() noexcept { return inducer_.get(); }

 private:
  std::string label_;
  mem::PressureLevel target_;
  std::size_t index_;
  std::unique_ptr<core::PressureInducer> inducer_;
  mem::PressureLevel observed_ = mem::PressureLevel::Normal;
};

/// Competing traffic through the shared bottleneck (ROADMAP item 3):
/// bulk flows chain chunk downloads back-to-back for the whole run;
/// on/off flows alternate transfer bursts with silence, with seeded
/// phase jitter so flows don't toggle in lockstep. Meant for
/// congestion-controlled links (NetSpec cc != fifo), where the flows
/// genuinely compete with the video session's segment fetches; on a
/// fifo link they simply queue ahead of it. Blob section XTRC for
/// workload 0, XTRn for later ones (registry key 130+i).
class CrossTrafficWorkload final : public core::Workload {
 public:
  CrossTrafficWorkload(CrossTrafficWorkloadSpec spec, std::size_t index);
  ~CrossTrafficWorkload() override;

  std::string label() const override { return spec_.label; }
  void attach(core::Testbed& testbed) override { (void)testbed; }
  void start(core::Testbed& testbed) override;
  bool done() const override { return true; }
  void finalize(core::Testbed& testbed) override;
  mem::PressureLevel observed_level() const override { return mem::PressureLevel::Normal; }

  /// Chunks fully delivered across all flows so far.
  std::uint64_t chunks_completed() const noexcept;
  const CrossTrafficWorkloadSpec& spec() const noexcept { return spec_; }

  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;

 private:
  struct FlowLane {
    net::TransferId id = net::kInvalidTransfer;
    bool on = true;  // on/off phase; bulk lanes stay on
    std::uint64_t chunks = 0;
  };

  void start_chunk(core::Testbed& tb, bool bulk, std::size_t slot);
  void toggle(core::Testbed& tb, std::size_t slot);

  CrossTrafficWorkloadSpec spec_;
  std::size_t index_;
  bool stopped_ = false;
  stats::Rng rng_;
  std::vector<FlowLane> bulk_;
  std::vector<FlowLane> onoff_;
};

}  // namespace mvqoe::scenario
