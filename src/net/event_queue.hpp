// Discrete-event scheduler.
//
// The synchronous-round fabric (SyncFabric) models the paper's
// shared-clock exchange; this scheduler is the substrate for anything
// finer-grained — heterogeneous compute times, per-link latencies,
// timer-driven exchange (§IV-D: "define a timer to exchange the
// parameters ... based on network characteristics"). Events fire in
// nondecreasing time order; ties break by scheduling order
// (deterministic FIFO), which keeps simulations reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace snap::net {

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Simulated time of the most recently fired event (0 before any).
  double now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `at` (must be >= now()).
  /// Returns a token usable with cancel().
  std::uint64_t schedule_at(double at, Action action);

  /// Schedules `action` `delay` seconds from now (delay >= 0).
  std::uint64_t schedule_in(double delay, Action action);

  /// Cancels a pending event. Returns false when the token already
  /// fired, was cancelled, or never existed.
  bool cancel(std::uint64_t token);

  /// Fires the next event. Returns false when the queue is empty.
  bool run_next();

  /// Fires every event with time <= `deadline` — including events an
  /// action schedules at exactly `deadline` while this call is firing —
  /// then advances the clock: on return now() == deadline, even when
  /// the queue drained before reaching it (the idle tail of the window
  /// still elapses). Strictly-later events stay pending. `deadline`
  /// must be >= now().
  void run_until(double deadline);

  /// Fires everything (events may schedule more events; runs to
  /// quiescence). `max_events` guards against runaway self-scheduling.
  void run_all(std::size_t max_events = 1'000'000);

  /// Pending (non-cancelled) event count.
  std::size_t pending() const noexcept { return live_.size(); }

 private:
  struct Entry {
    double at;
    std::uint64_t sequence;  // FIFO tie-break + cancellation token
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  /// Tokens of scheduled-but-not-yet-fired, not-cancelled events.
  /// Cancellation is lazy: the heap entry stays and is skipped at pop.
  std::unordered_set<std::uint64_t> live_;
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace snap::net
