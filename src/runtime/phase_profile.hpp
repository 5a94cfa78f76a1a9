// Wall-clock split of a run's rounds by phase.
//
// The shared-clock fabrics (SyncFabric and GossipFabric) always fill a
// PhaseProfile; it lands on TrainResult::profile. It costs one
// steady_clock read per phase boundary (about nine a round) and only
// reads the clock, so it never touches the trajectory or the CSV.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace snap::runtime {

/// The phases of one shared-clock round, in execution order.
enum class Phase : std::size_t {
  kPreamble,     ///< fault materialization, activation draw, begin_round
  kLocalUpdate,  ///< gradient + local_update (and the socket row exchange)
  kCollect,      ///< collect + the sender-side fault draws and charges
  kPost,         ///< serial post + charge (and the pull path's tally fold)
  kDelivery,     ///< flip, pull, mix and reply waves
  kEvaluate,     ///< evaluate + stats
  kEpochHooks,   ///< on_churn and on_partition (with their posts),
                 ///< end_round and the checkpoint write
};

inline constexpr std::size_t kPhaseCount = 7;

/// Stable lower-case phase names (JSON keys, table rows).
constexpr std::string_view phase_name(Phase phase) noexcept {
  constexpr std::array<std::string_view, kPhaseCount> kNames = {
      "preamble", "local_update", "collect", "post",
      "delivery", "evaluate",     "epoch_hooks"};
  return kNames[static_cast<std::size_t>(phase)];
}

/// Accumulated nanoseconds and timed calls per phase.
struct PhaseProfile {
  std::array<std::uint64_t, kPhaseCount> ns{};
  std::array<std::uint64_t, kPhaseCount> calls{};

  std::uint64_t ns_of(Phase phase) const noexcept {
    return ns[static_cast<std::size_t>(phase)];
  }
  std::uint64_t calls_of(Phase phase) const noexcept {
    return calls[static_cast<std::size_t>(phase)];
  }
};

/// Charges the wall-clock between consecutive laps to phases: each
/// lap(phase) books the time since the previous lap (or construction).
class PhaseClock {
 public:
  explicit PhaseClock(PhaseProfile& profile) noexcept
      : profile_(profile), last_(Clock::now()) {}

  /// `count` false adds the time to `phase` without a call: the second
  /// half of a phase that another phase interrupted.
  void lap(Phase phase, bool count = true) noexcept {
    const Clock::time_point now = Clock::now();
    const auto index = static_cast<std::size_t>(phase);
    profile_.ns[index] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count());
    if (count) ++profile_.calls[index];
    last_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  PhaseProfile& profile_;
  Clock::time_point last_;
};

}  // namespace snap::runtime
