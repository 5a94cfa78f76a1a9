// Event-driven asynchronous round execution on net::EventQueue.
//
// The paper frames exchange as timer-driven ("define a timer to
// exchange the parameters ... based on network characteristics",
// §IV-D); AsyncFabric is that execution model. Each node free-runs its
// own round state machine:
//
//   compute finishes at t  →  local_update + collect fire,
//   every envelope is serialized through the sender's NIC, crosses the
//   link (per-hop latency), queues behind the receiver's NIC (incast is
//   emergent, not closed-form), and its mix fires on arrival;
//   the node then starts its next round — immediately if its gates
//   allow, otherwise it parks until another event unblocks it.
//
// Nodes therefore mix with whatever neighbor parameters are freshest:
// a frame from a slow sender lands while the receiver is rounds ahead,
// and that gap — receiver's completed rounds minus the sender's round
// at transmission — is the per-edge staleness this fabric tracks. An
// SSP-style bound (AsyncTimingConfig::max_staleness_rounds) optionally
// parks nodes that run too far ahead of a graph neighbor.
//
// Measurement keeps the round as its unit so results stay comparable
// with SyncFabric: when every node has completed round k (and the
// scheme's eval_ready gate agrees), the fabric evaluates, stamps
// sim_seconds with the event clock, and feeds the convergence detector.
//
// Determinism: the event loop is single-threaded, EventQueue breaks
// ties by scheduling order, and all randomness (compute jitter) comes
// from per-node forked Rng streams — identical configs replay
// identical event sequences bit for bit. With homogeneous compute
// times, zero jitter, and equal link parameters, every round-r compute
// fires before any round-r delivery, in ascending node order — the
// same per-round interleaving as SyncFabric, which is why the
// homogeneous async run reproduces the sync loss trajectory.
//
// Deliberate approximations (documented, asserted nowhere): the serial
// begin_round(r) hook fires when the *first* node enters round r (link
// failure draws and minibatch sequences advance on that global round
// counter), and SNAP's synchronized EXTRA restart — a shared-clock
// concept that runs from end_round on every fabric — fires here at the
// eval barrier, so under skew a fast node restarts a round or two into
// its future. Both collapse to the sync semantics when compute times
// are homogeneous.
//
// Fault layer (FabricConfig::faults): the injector's schedule is
// round-indexed, so both fabrics replay the same fault timeline. A
// node whose next round is down goes *dormant* — it stops computing,
// drops out of the eval barrier, and is skipped by the SSP gate; it
// wakes (fast-forwarded to the frontier) when its schedule says up.
// Crash *confirmation* is time-based, matching a real failure
// detector: when a dormant node has been silent for the recovery
// config's suspect window, on_churn fires; the restart side fires when
// it wakes. suspected() additionally flags any neighbor silent past
// the window, which is what lets round-aligned pacing move on instead
// of parking forever. Frames lost to a down link — and frames
// corrupted in flight, which are charged but never delivered — are
// retransmitted with bounded exponential backoff. A low-frequency
// probe timer keeps the event queue alive while nodes are parked or
// dormant (sim time must advance for time-based gates to open) and
// gives up after a long no-progress streak so a fully-crashed system
// terminates.
//
// Elastic membership rides the same schedule: an absent node (latent
// joiner, graceful leaver) is dormant like a crashed one, but its
// transitions are *coordinated* — joins and leaves are announced via
// on_churn when their round begins (maybe_begin), with no suspicion
// window and no restart delta on wake. Both fabrics therefore surface
// the identical membership timeline at the identical rounds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/training.hpp"
#include "net/cost_model.hpp"
#include "net/event_queue.hpp"
#include "net/transport.hpp"
#include "runtime/fabric.hpp"

namespace snap::runtime {

template <typename Payload>
class AsyncFabric final : public RoundFabric<Payload> {
 public:
  /// Delivery here is native to the event queue — a frame's arrival
  /// *time* is the model — so the round-structured Transport seam
  /// cannot carry it. The parameter exists so make_fabric has one
  /// signature across fabrics; only the sim kind (or none) is accepted,
  /// and socket-backed runs must use the sync/gossip fabrics.
  AsyncFabric(const FabricConfig& config, const AsyncTimingConfig& timing,
              std::unique_ptr<net::Transport<Payload>> transport = nullptr)
      : config_(config), timing_(timing), pool_(config.threads) {
    SNAP_REQUIRE_MSG(
        transport == nullptr ||
            transport->kind() == net::TransportKind::kSim,
        "the async fabric delivers on the event queue; socket transports "
        "are not supported (use --fabric=sync or --fabric=gossip)");
    SNAP_REQUIRE(timing_.compute_s > 0.0);
    SNAP_REQUIRE(timing_.nic_bandwidth_bytes_per_s > 0.0);
    SNAP_REQUIRE(timing_.link_latency_s >= 0.0);
    SNAP_REQUIRE(timing_.compute_jitter >= 0.0 &&
                 timing_.compute_jitter < 1.0);
    if (config_.graph != nullptr) {
      // Tolerant routing: latent membership joiners may be isolated
      // until they join (see SyncFabric); joins refresh the table.
      cost_.emplace(net::HopMatrix(*config_.graph,
                                   /*require_connected=*/false));
    }
    for (const LinkOverride& link : timing_.link_overrides) {
      overrides_[net::FaultInjector::link_key(link.u, link.v)] = link;
    }
  }

  common::ThreadPool& pool() noexcept override { return pool_; }

  core::TrainResult run(RoundHooks<Payload>& hooks) override {
    SNAP_REQUIRE_MSG(hooks.evaluate != nullptr,
                     "run() requires an evaluate hook");
    const std::size_t n = hooks.node_count;
    SNAP_REQUIRE(n > 0);
    if (!timing_.node_compute_s.empty()) {
      SNAP_REQUIRE_MSG(timing_.node_compute_s.size() == n,
                       "node_compute_s must have one entry per node");
    }
    if (!timing_.node_nic_bandwidth.empty()) {
      SNAP_REQUIRE_MSG(timing_.node_nic_bandwidth.size() == n,
                       "node_nic_bandwidth must have one entry per node");
    }

    hooks_ = &hooks;
    detector_.emplace(config_.convergence);
    completed_.assign(n, 0);
    parked_.assign(n, false);
    out_busy_.assign(n, 0.0);
    in_busy_.assign(n, 0.0);
    edge_staleness_.assign(n, {});
    dormant_.assign(n, false);
    dormant_round_.assign(n, 0);
    confirmed_down_.assign(n, false);
    last_heard_.assign(n, {});
    jitter_.clear();
    jitter_.reserve(n);
    common::Rng root(timing_.seed);
    for (std::size_t i = 0; i < n; ++i) {
      jitter_.push_back(root.fork(0x4A177E5ULL + i));
    }
    frames_dropped_ = 0;
    frames_corrupted_ = 0;
    frames_retried_ = 0;
    state_sync_bytes_ = 0;
    progress_marker_ = 0;
    idle_probes_ = 0;
    probe_scheduled_ = false;
    double slowest_compute = timing_.compute_s;
    for (const double c : timing_.node_compute_s) {
      slowest_compute = std::max(slowest_compute, c);
    }
    suspect_window_ =
        config_.recovery.suspect_after_s > 0.0
            ? config_.recovery.suspect_after_s
            : 25.0 * (slowest_compute * (1.0 + timing_.compute_jitter) +
                      timing_.link_latency_s);

    // Every node starts computing round 1 at t = 0 — unless its round 1
    // is already scheduled down, in which case it starts dormant.
    for (topology::NodeId i = 0; i < n; ++i) {
      advance(i);
    }
    while (!stopping_ && queue_.run_next()) {
    }

    core::TrainResult result = std::move(result_);
    result.converged = detector_->converged();
    result.converged_after = result.converged ? detector_->converged_after()
                                              : evaluated_rounds_;
    if (cost_) {
      result.total_bytes = cost_->total_bytes();
      result.total_cost = cost_->total_cost();
    }
    result.total_sim_seconds = result.iterations.empty()
                                   ? queue_.now()
                                   : result.iterations.back().sim_seconds;
    hooks_ = nullptr;
    return result;
  }

  /// Last observed staleness (receiver rounds ahead of sender) per
  /// directed edge to → from, for tests and diagnostics.
  std::size_t edge_staleness(topology::NodeId to,
                             topology::NodeId from) const {
    SNAP_REQUIRE(to < edge_staleness_.size());
    const auto& row = edge_staleness_[to];
    const auto it = row.find(from);
    return it == row.end() ? 0 : it->second;
  }

  /// A neighbor is suspected when its crash is confirmed, or when the
  /// observer has not heard a frame from it for the suspect window —
  /// the failure-detector view a real node would have.
  bool suspected(topology::NodeId observer,
                 topology::NodeId neighbor) const override {
    if (config_.faults == nullptr) return false;
    if (neighbor < confirmed_down_.size() && confirmed_down_[neighbor]) {
      return true;
    }
    double heard = 0.0;
    if (observer < last_heard_.size()) {
      const auto it = last_heard_[observer].find(neighbor);
      if (it != last_heard_[observer].end()) heard = it->second;
    }
    return queue_.now() - heard > suspect_window_;
  }

 private:
  class WireSink final : public MessageSink<Payload> {
   public:
    explicit WireSink(AsyncFabric* fabric) : fabric_(fabric) {}
    void send(topology::NodeId from, topology::NodeId to, Payload payload,
              std::size_t wire_bytes, bool state_sync) override {
      fabric_->send_envelope(
          from,
          Envelope<Payload>{to, std::move(payload), wire_bytes, state_sync},
          fabric_->completed_[from]);
    }

   private:
    AsyncFabric* fabric_;
  };

  double compute_seconds(topology::NodeId node) {
    double base = timing_.node_compute_s.empty()
                      ? timing_.compute_s
                      : timing_.node_compute_s[node];
    SNAP_REQUIRE(base > 0.0);
    if (timing_.compute_jitter > 0.0) {
      const double u = jitter_[node].uniform(-timing_.compute_jitter,
                                             timing_.compute_jitter);
      base *= 1.0 + u;
    }
    return base;
  }

  double nic_bandwidth(topology::NodeId node) const {
    const double bw = timing_.node_nic_bandwidth.empty()
                          ? timing_.nic_bandwidth_bytes_per_s
                          : timing_.node_nic_bandwidth[node];
    SNAP_REQUIRE(bw > 0.0);
    return bw;
  }

  /// Calls the serial round preamble for every round up to `round`, in
  /// order, exactly once each — driven by the first node to finish that
  /// round's compute. Coordinated membership transitions (joins and
  /// graceful leaves) are announced here, at the round the injector
  /// materialized them: unlike a crash they carry no detection
  /// ambiguity, so both fabrics surface them at the identical round.
  void maybe_begin(std::size_t round) {
    while (begun_ < round) {
      ++begun_;
      if (config_.faults != nullptr) {
        config_.faults->ensure_round(begun_);
        const net::ChurnDelta& d = config_.faults->churn_delta(begun_);
        if (!d.joined.empty() || !d.left.empty()) {
          // Before any handoff frame is sent.
          refresh_routes(cost_, *config_.faults);
          if (hooks_->on_churn) {
            net::ChurnDelta membership;
            membership.joined = d.joined;
            membership.left = d.left;
            WireSink sink(this);
            hooks_->on_churn(begun_, membership, sink);
          }
          ++progress_marker_;
        }
        // Component-structure changes are round-indexed like the rest of
        // the injector's schedule, so both fabrics surface the identical
        // partition timeline at the identical rounds. Fired after the
        // membership announcement, mirroring the sync preamble order.
        const net::PartitionDelta& pd =
            config_.faults->partition_delta(begun_);
        if (hooks_->on_partition && !pd.empty()) {
          WireSink sink(this);
          hooks_->on_partition(begun_, pd, sink);
          ++progress_marker_;
        }
      }
      if (hooks_->begin_round) hooks_->begin_round(begun_);
    }
  }

  bool node_ready(topology::NodeId node, std::size_t round) const {
    if (hooks_->ready && !hooks_->ready(node, round)) return false;
    // Joins grow the topology mid-run, so the gate walks the
    // injector's dynamic graph when faults are attached.
    const topology::Graph* gate_graph =
        config_.faults != nullptr ? &config_.faults->current_graph()
                                  : config_.graph;
    if (timing_.max_staleness_rounds > 0 && gate_graph != nullptr) {
      // SSP gate: don't start a round that would leave a neighbor more
      // than max_staleness_rounds behind. Dormant (crashed) neighbors
      // are exempt — waiting on a dead node would park forever.
      for (const topology::NodeId j : gate_graph->neighbors(node)) {
        if (dormant_[j] || confirmed_down_[j]) continue;
        if (completed_[j] + timing_.max_staleness_rounds + 1 < round) {
          return false;
        }
      }
    }
    return true;
  }

  void schedule_compute(topology::NodeId node, std::size_t round) {
    ++progress_marker_;
    queue_.schedule_in(compute_seconds(node), [this, node, round] {
      on_compute_done(node, round);
    });
  }

  void on_compute_done(topology::NodeId node, std::size_t round) {
    maybe_begin(round);
    if (hooks_->local_gradient) hooks_->local_gradient(node);
    if (hooks_->local_update) hooks_->local_update(node);
    std::vector<Envelope<Payload>> envelopes;
    if (hooks_->collect) envelopes = hooks_->collect(node);
    completed_[node] = round;
    for (auto& envelope : envelopes) {
      send_envelope(node, std::move(envelope), round);
    }
    check_eval();
    advance(node);
    unpark();
  }

  /// Two-stage NIC serialization: the frame occupies the sender's
  /// uplink, crosses the (hop-scaled) latency, then queues behind the
  /// receiver's downlink. A busy receiver NIC is exactly the incast
  /// effect the paper's §I argues about — here it emerges from the
  /// event timeline instead of a closed form.
  void send_envelope(topology::NodeId from, Envelope<Payload> envelope,
                     std::size_t sender_round, std::size_t attempt = 0) {
    const topology::NodeId to = envelope.to;
    SNAP_REQUIRE(to < completed_.size());
    SNAP_REQUIRE_MSG(to != from, "node " << from << " messaging itself");
    bool corrupted = false;
    if (config_.faults != nullptr && !envelope.state_sync) {
      // STATE_SYNC handoffs are exempt: they ride the coordinated join
      // handshake (the joiner is a member the instant the join is
      // announced, but this round's link state was materialized before
      // that), and the handshake is reliable — the frame always crosses
      // the wire and is always charged.
      const std::size_t fault_round = std::max<std::size_t>(sender_round, 1);
      config_.faults->ensure_round(fault_round);
      if (config_.faults->link_down(fault_round, from, to)) {
        // Lost before the wire (carrier down / endpoint dead): nothing
        // is charged; retry with backoff against the link's later state.
        maybe_retry(from, std::move(envelope), sender_round, attempt);
        return;
      }
      corrupted = envelope.wire_bytes > 0 &&
                  config_.faults->frame_corrupted(fault_round, from, to,
                                                  attempt);
    }
    double arrival = queue_.now();
    if (envelope.wire_bytes > 0) {
      if (cost_) cost_->record_flow(from, to, envelope.wire_bytes);
      // Handoff accounting follows the charge: every wire crossing
      // (including a retransmission) costs its bytes.
      if (envelope.state_sync) state_sync_bytes_ += envelope.wire_bytes;
      const std::size_t hops =
          cost_ ? cost_->hop_matrix().hops(from, to) : 1;
      double latency =
          timing_.link_latency_s * static_cast<double>(hops);
      double bw_out = nic_bandwidth(from);
      double bw_in = nic_bandwidth(to);
      if (const auto it =
              overrides_.find(net::FaultInjector::link_key(from, to));
          it != overrides_.end()) {
        if (it->second.latency_s > 0.0) latency = it->second.latency_s;
        if (it->second.bandwidth_bytes_per_s > 0.0) {
          bw_out = it->second.bandwidth_bytes_per_s;
          bw_in = it->second.bandwidth_bytes_per_s;
        }
      }
      const double bytes = static_cast<double>(envelope.wire_bytes);
      const double out_start = std::max(queue_.now(), out_busy_[from]);
      const double out_done = out_start + bytes / bw_out;
      out_busy_[from] = out_done;
      const double at_receiver = out_done + latency;
      const double in_start = std::max(at_receiver, in_busy_[to]);
      arrival = in_start + bytes / bw_in;
      in_busy_[to] = arrival;
    }
    if (corrupted) {
      // The frame crossed the wire (charged, NIC time consumed) but
      // fails decode at the receiver; the sender retransmits after a
      // backoff, re-rolling the corruption draw per attempt.
      ++frames_corrupted_;
      auto resend = std::make_shared<Envelope<Payload>>(std::move(envelope));
      queue_.schedule_at(arrival, [this, from, resend, sender_round,
                                   attempt] {
        maybe_retry(from, std::move(*resend), sender_round, attempt);
        check_eval();
        unpark();
      });
      return;
    }
    // EventQueue actions must be copyable; the payload rides a
    // shared_ptr so move-only payloads work too.
    auto payload = std::make_shared<Payload>(std::move(envelope.payload));
    queue_.schedule_at(arrival, [this, from, to, sender_round, payload] {
      on_delivery(from, to, sender_round, std::move(*payload));
    });
  }

  /// Bounded retransmission with exponential backoff. The retry re-rolls
  /// link state against the sender's round at retransmission time, so a
  /// recovered link carries the frame and a persistent outage (or a
  /// dead endpoint) exhausts the budget and drops it.
  void maybe_retry(topology::NodeId from, Envelope<Payload> envelope,
                   std::size_t sender_round, std::size_t attempt) {
    if (config_.faults == nullptr ||
        attempt >= config_.recovery.max_retries) {
      ++frames_dropped_;
      return;
    }
    // A confirmed partition is not a transient loss: while the injector
    // places sender and receiver in different components, every
    // retransmission would hit the same sustained cut. Park the frame
    // (drop without a retry chain) — the heal-time boundary sync, not a
    // retry, is what reconciles the two sides.
    const std::size_t fault_round = std::max<std::size_t>(sender_round, 1);
    if (!config_.faults->same_component(fault_round, from, envelope.to)) {
      ++frames_dropped_;
      return;
    }
    ++frames_retried_;
    const double backoff = net::bounded_backoff(config_.recovery, attempt);
    auto resend = std::make_shared<Envelope<Payload>>(std::move(envelope));
    queue_.schedule_in(std::max(backoff, 1e-9),
                       [this, from, resend, sender_round, attempt] {
                         const std::size_t r =
                             std::max(sender_round, completed_[from]);
                         send_envelope(from, std::move(*resend), r,
                                       attempt + 1);
                       });
  }

  void on_delivery(topology::NodeId from, topology::NodeId to,
                   std::size_t sender_round, Payload payload) {
    last_heard_[to][from] = queue_.now();
    const std::size_t staleness = completed_[to] > sender_round
                                      ? completed_[to] - sender_round
                                      : 0;
    edge_staleness_[to][from] = staleness;
    staleness_sum_ += static_cast<double>(staleness);
    ++staleness_count_;
    staleness_max_ = std::max(staleness_max_,
                              static_cast<std::uint64_t>(staleness));
    if (hooks_->mix) {
      const Delivery<Payload> delivery{from, std::move(payload)};
      WireSink sink(this);
      hooks_->mix(to, std::span<const Delivery<Payload>>(&delivery, 1),
                  sink);
    }
    check_eval();
    unpark();
  }

  /// Starts `node`'s next round, parks it until a gate opens, or sends
  /// it dormant when the fault schedule holds it down.
  void advance(topology::NodeId node) {
    if (stopping_) return;
    const std::size_t next = completed_[node] + 1;
    if (next > config_.convergence.max_iterations) return;
    if (config_.faults != nullptr) {
      config_.faults->ensure_round(next);
      if (config_.faults->node_down(next, node)) {
        make_dormant(node, next);
        return;
      }
    }
    if (node_ready(node, next)) {
      schedule_compute(node, next);
    } else {
      parked_[node] = true;
      ensure_probe();
    }
  }

  /// Re-checks every parked node after any event — gates only open on
  /// events, so this keeps the simulation live without busy-waiting.
  /// With faults attached it also wakes dormant nodes whose schedule
  /// has turned up again.
  void unpark() {
    if (stopping_) return;
    try_wake_dormant();
    for (topology::NodeId i = 0; i < parked_.size(); ++i) {
      if (!parked_[i]) continue;
      const std::size_t next = completed_[i] + 1;
      if (next > config_.convergence.max_iterations) {
        parked_[i] = false;
        continue;
      }
      if (config_.faults != nullptr) {
        config_.faults->ensure_round(next);
        if (config_.faults->node_down(next, i)) {
          parked_[i] = false;
          make_dormant(i, next);
          continue;
        }
      }
      if (node_ready(i, next)) {
        parked_[i] = false;
        schedule_compute(i, next);
      }
    }
  }

  /// The node's next round is down: it stops computing and leaves the
  /// eval barrier. If it is still down when the silence window elapses,
  /// the crash is confirmed to the scheme.
  void make_dormant(topology::NodeId node, std::size_t round) {
    dormant_[node] = true;
    dormant_round_[node] = round;
    queue_.schedule_in(suspect_window_,
                       [this, node] { confirm_crash(node); });
    ensure_probe();
  }

  void confirm_crash(topology::NodeId node) {
    if (stopping_ || !dormant_[node] || confirmed_down_[node]) return;
    const std::size_t round = std::max<std::size_t>(begun_, 1);
    if (config_.faults != nullptr) {
      config_.faults->ensure_round(round);
      // Non-members are announced (joined/left at maybe_begin), never
      // suspected: absence is not a crash to confirm.
      if (!config_.faults->member(round, node)) return;
    }
    confirmed_down_[node] = true;
    ++progress_marker_;
    if (hooks_->on_churn) {
      WireSink sink(this);
      net::ChurnDelta delta;
      delta.crashed.push_back(node);
      hooks_->on_churn(round, delta, sink);
    }
    check_eval();
    unpark();
  }

  /// Wakes dormant nodes whose fault schedule says up at the round they
  /// would resume (their own stalled round, or the global frontier —
  /// a restarted node fast-forwards instead of replaying its outage).
  void try_wake_dormant() {
    if (config_.faults == nullptr || stopping_) return;
    const std::size_t max_iter = config_.convergence.max_iterations;
    for (topology::NodeId i = 0; i < dormant_.size(); ++i) {
      if (!dormant_[i]) continue;
      std::size_t resume = std::max(begun_, dormant_round_[i]);
      resume = std::min(std::max<std::size_t>(resume, 1), max_iter);
      config_.faults->ensure_round(resume);
      if (config_.faults->node_down(resume, i)) continue;
      dormant_[i] = false;
      completed_[i] = std::max(completed_[i], resume - 1);
      ++progress_marker_;
      if (confirmed_down_[i]) {
        confirmed_down_[i] = false;
        if (hooks_->on_churn) {
          WireSink sink(this);
          net::ChurnDelta delta;
          delta.restarted.push_back(i);
          hooks_->on_churn(resume, delta, sink);
        }
      }
      advance(i);
    }
  }

  /// Keeps the queue alive while nodes are parked or dormant: time-based
  /// gates (suspicion, wakes) only open when sim time advances. Gives up
  /// after a long streak of probes with no progress, so a fully-crashed
  /// system drains and run() returns.
  void ensure_probe() {
    if (config_.faults == nullptr || probe_scheduled_ || stopping_) return;
    bool pending = false;
    for (std::size_t i = 0; i < dormant_.size() && !pending; ++i) {
      pending = dormant_[i] || parked_[i];
    }
    if (!pending) return;
    probe_scheduled_ = true;
    queue_.schedule_in(std::max(suspect_window_ / 8.0, 1e-6), [this] {
      probe_scheduled_ = false;
      on_probe();
    });
  }

  void on_probe() {
    if (stopping_) return;
    const std::uint64_t before = progress_marker_;
    unpark();
    if (progress_marker_ != before) {
      idle_probes_ = 0;
    } else if (++idle_probes_ > kMaxIdleProbes) {
      return;
    }
    ensure_probe();
  }

  /// Round k is measured once every node has completed it (and the
  /// scheme agrees); rounds are evaluated in order, so a fast burst of
  /// completions produces one stats row per round, just like sync.
  void check_eval() {
    while (!stopping_) {
      const std::size_t k = evaluated_rounds_ + 1;
      if (k > config_.convergence.max_iterations) break;
      // The barrier spans the *alive* nodes; a dormant (crashed) node
      // must not hold measurement hostage. All-dormant systems simply
      // stop measuring.
      std::size_t slowest = 0;
      bool any_alive = false;
      for (std::size_t i = 0; i < completed_.size(); ++i) {
        if (dormant_[i]) continue;
        slowest = any_alive ? std::min(slowest, completed_[i])
                            : completed_[i];
        any_alive = true;
      }
      if (!any_alive || slowest < k) break;
      if (hooks_->eval_ready && !hooks_->eval_ready(k)) break;
      evaluated_rounds_ = k;

      const RoundEval eval =
          hooks_->evaluate(k, measures_accuracy(config_, k));

      core::IterationStats stats =
          shared_round_stats(eval, cost_ ? &*cost_ : nullptr,
                             config_.faults, k, completed_.size());
      stats.sim_seconds = queue_.now();
      if (staleness_count_ > 0) {
        stats.mean_frame_staleness =
            staleness_sum_ / static_cast<double>(staleness_count_);
      }
      stats.max_frame_staleness = staleness_max_;
      staleness_sum_ = 0.0;
      staleness_count_ = 0;
      staleness_max_ = 0;
      if (config_.faults != nullptr) {
        stats.frames_dropped = frames_dropped_;
        stats.frames_corrupted = frames_corrupted_;
        stats.frames_retried = frames_retried_;
        stats.state_sync_bytes = state_sync_bytes_;
        frames_dropped_ = 0;
        frames_corrupted_ = 0;
        frames_retried_ = 0;
        state_sync_bytes_ = 0;
      }
      if (hooks_->annotate_stats) hooks_->annotate_stats(stats);
      result_.iterations.push_back(stats);

      detector_->observe(eval.train_loss, eval.consensus_residual,
                         stats.evaluated ? stats.test_accuracy : -1.0);
      if (hooks_->end_round) hooks_->end_round(k);
      if (detector_->converged() ||
          k == config_.convergence.max_iterations) {
        stopping_ = true;
      }
    }
  }

  FabricConfig config_;
  AsyncTimingConfig timing_;
  common::ThreadPool pool_;
  std::optional<net::CostTracker> cost_;
  std::unordered_map<std::uint64_t, LinkOverride> overrides_;
  net::EventQueue queue_;
  RoundHooks<Payload>* hooks_ = nullptr;
  std::optional<core::ConvergenceDetector> detector_;
  core::TrainResult result_;

  static constexpr std::size_t kMaxIdleProbes = 256;

  std::vector<std::size_t> completed_;  // rounds finished per node
  std::vector<bool> parked_;
  std::vector<bool> dormant_;           // crashed per the fault schedule
  std::vector<std::size_t> dormant_round_;  // the round that stalled
  std::vector<bool> confirmed_down_;    // crash surfaced via on_churn
  // last_heard_[to][from]: when `to` last received a frame from `from`
  // (the silence clock behind suspected()).
  std::vector<std::unordered_map<topology::NodeId, double>> last_heard_;
  double suspect_window_ = 0.0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t frames_retried_ = 0;
  std::uint64_t state_sync_bytes_ = 0;
  std::uint64_t progress_marker_ = 0;
  std::size_t idle_probes_ = 0;
  bool probe_scheduled_ = false;
  std::vector<double> out_busy_;  // sender-NIC busy-until, per node
  std::vector<double> in_busy_;   // receiver-NIC busy-until, per node
  std::vector<common::Rng> jitter_;
  std::vector<std::unordered_map<topology::NodeId, std::size_t>>
      edge_staleness_;
  double staleness_sum_ = 0.0;
  std::uint64_t staleness_count_ = 0;
  std::uint64_t staleness_max_ = 0;
  std::size_t begun_ = 0;
  std::size_t evaluated_rounds_ = 0;
  bool stopping_ = false;
};

}  // namespace snap::runtime
