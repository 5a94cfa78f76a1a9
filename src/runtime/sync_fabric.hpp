// Shared-clock round execution (the paper's §II-B / §IV-D model).
//
// SyncFabric is the extracted form of the round loop the trainers used
// to hand-roll, with the exact same phase interleaving and — crucially —
// the exact same determinism discipline:
//
//   - parallel phases (local_gradient, local_update, collect, mix) fan
//     out on the pool and write only node-owned slots of preallocated
//     buffers;
//   - everything whose result depends on order — socket posts, whose
//     wire sequence numbers follow the post order, multi-hop charges,
//     the convergence detector — replays serially in ascending node
//     order from those buffers.
//
// One-hop frames on the sim transport are delivered by pull instead.
// Each sender's collect task applies its own frames' fault draws and
// tallies their charges; each receiver's mix task then takes the frames
// addressed to it from its current-graph neighbors in ascending sender
// id, appends them to its inbox after what the serial churn and
// partition hooks posted, charges its inbound slot, mixes and clears
// the inbox. That is the serial loop's inbox order exactly; the fault
// draws are pure lookups into the materialized round; and the charges
// are uint64 sums, which a serial O(n) fold adds to the CostTracker in
// any order with the same result. The fold also checks that every staged
// frame was pulled exactly once, so a frame to a non-neighbor or to self
// fails loudly. Socket transports, collect hooks that are not parallel
// (the parameter server's multi-hop hub flows) and graph-less runs keep
// the serial post.
//
// Results are therefore bitwise identical for every `threads` value,
// and bitwise identical between the pull and the serial delivery.
//
// Frames move through the net::Transport seam: the in-process
// SimTransport by default (the deterministic oracle), or an injected
// SocketTransport that carries cross-shard frames over real sockets —
// the fabric code is identical either way, which is what the oracle
// parity contract rests on.
//
// Mix-phase replies (MessageSink) are delivered in follow-up delivery
// waves within the same round: sends staged during wave w are posted
// serially in sender order, the transport flips, and wave w+1 runs mix
// on the nodes that received something — exactly how the parameter
// server's gradient-up/parameters-down round decomposes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/training.hpp"
#include "net/cost_model.hpp"
#include "net/transport.hpp"
#include "runtime/fabric.hpp"
#include "runtime/phase_profile.hpp"

namespace snap::runtime {

template <typename Payload>
class SyncFabric : public RoundFabric<Payload> {
 public:
  /// `transport` carries the frames (nullptr = build a SimTransport at
  /// first use — the deterministic default). The fabric owns it and
  /// attaches its CostTracker, so byte accounting runs behind the seam
  /// identically on every backend.
  explicit SyncFabric(const FabricConfig& config,
                      std::unique_ptr<net::Transport<Payload>> transport =
                          nullptr)
      : config_(config), pool_(config.threads),
        transport_(std::move(transport)) {
    if (config_.graph != nullptr) {
      // Tolerant routing: latent elastic-membership joiners are
      // isolated until their join round, so the graph may be
      // disconnected. Actual flows always have routes (frames touching
      // a non-member are dropped before charging, and joins refresh
      // the table below).
      cost_.emplace(net::HopMatrix(*config_.graph,
                                   /*require_connected=*/false));
    }
  }

  common::ThreadPool& pool() noexcept override { return pool_; }

  /// The delivery backend (nullptr until the first round when the
  /// default SimTransport is built lazily).
  net::Transport<Payload>* transport() noexcept { return transport_.get(); }

  /// Under the shared clock there is no silence ambiguity: a neighbor
  /// is suspected exactly when the injector has confirmed its crash.
  bool suspected(topology::NodeId /*observer*/,
                 topology::NodeId neighbor) const override {
    return config_.faults != nullptr && current_round_ > 0 &&
           config_.faults->confirmed_down(current_round_, neighbor);
  }

  /// Executes exactly one synchronous round — message exchange
  /// included, evaluation/stats excluded. `round` is 1-based. This is
  /// the step-driven entry point for callers that drive rounds
  /// themselves (the test-only DGD baseline); run() composes it with
  /// the measurement machinery.
  void step_round(RoundHooks<Payload>& hooks, std::size_t round) {
    const std::size_t n = hooks.node_count;
    SNAP_REQUIRE(n > 0);
    ensure_capacity(n);
    PhaseClock clock(profile_);
    current_round_ = round;
    round_frames_dropped_ = 0;
    round_frames_corrupted_ = 0;
    round_links_activated_ = 0;
    // Resets the transport's per-round tallies (STATE_SYNC bytes) and,
    // on the socket backend, stamps the round onto the wire clock —
    // before the churn hook, whose handoff frames belong to this round.
    transport_->begin_round(round);

    // Materialize this round's fault schedule and surface confirmed
    // churn before any phase runs, so the scheme reacts (re-projected
    // weights, membership masks) with the same view on every fabric.
    if (config_.faults != nullptr) {
      config_.faults->ensure_round(round);
      const net::ChurnDelta& delta = config_.faults->churn_delta(round);
      if (!delta.joined.empty() || !delta.left.empty()) {
        // Before any handoff frame needs a route.
        refresh_routes(cost_, *config_.faults);
      }
      const net::PartitionDelta& pdelta =
          config_.faults->partition_delta(round);
      const bool churn = hooks.on_churn && !delta.empty();
      const bool partition = hooks.on_partition && !pdelta.empty();
      if (churn || partition) clock.lap(Phase::kPreamble, /*count=*/false);
      if (churn) {
        StagingSink sink(&replies_);
        hooks.on_churn(round, delta, sink);
        // Churn-time sends ride the round's first delivery wave.
        post_replies(n, round);
      }
      // Component-structure changes fire after churn: a crash-driven
      // relabel sees the post-epoch membership, and heal-time boundary
      // syncs are staged before any phase consumes the round's inbox.
      if (partition) {
        StagingSink sink(&replies_);
        hooks.on_partition(round, pdelta, sink);
        post_replies(n, round);
      }
      if (churn || partition) clock.lap(Phase::kEpochHooks);
    }
    const auto down = [&](topology::NodeId i) {
      return config_.faults != nullptr && config_.faults->node_down(round, i);
    };

    // Subclass preamble (GossipFabric's activation draw) — after churn
    // is surfaced so the schedule sees the post-epoch membership, before
    // begin_round so the scheme reacts ahead of any phase.
    prepare_round(round, hooks);

    if (hooks.begin_round) hooks.begin_round(round);
    clock.lap(Phase::kPreamble);

    // Owner-computes: the model call runs only where the transport
    // computes the node; the exchange hands every process the rows it
    // skipped, bit for bit the owner's. The sim computes every node and
    // exchanges nothing, so there the gradient rides the local_update
    // sweep instead: a second pass over 10⁴ nodes' state costs the sync
    // SVM workload a few percent of its round.
    const bool split = hooks.local_gradient &&
                       transport_->kind() != net::TransportKind::kSim;
    if (split) {
      // Over the computed nodes only: the pool chunks statically, and a
      // shard's owned block would otherwise land on a single thread.
      computed_.clear();
      for (topology::NodeId i = 0; i < n; ++i) {
        if (!down(i) && transport_->computes(i)) computed_.push_back(i);
      }
      pool_.parallel_for(0, computed_.size(), [&](std::size_t k) {
        hooks.local_gradient(computed_[k]);
      });
      transport_->exchange_rows([&](topology::NodeId i) {
        return down(i) ? std::span<double>() : hooks.gradient_row(i);
      });
    }
    if (hooks.local_update) {
      pool_.parallel_for(0, n, [&](std::size_t i) {
        if (down(i)) return;
        if (hooks.local_gradient && !split) hooks.local_gradient(i);
        hooks.local_update(i);
      });
    }
    clock.lap(Phase::kLocalUpdate);

    // Filter/encode fans out into per-node staging slots; on the pull
    // path each sender also resolves its own frames' fault draws and
    // charges there ...
    const topology::Graph* pull_graph = pull_delivery_graph(hooks);
    if (hooks.collect) {
      if (hooks.parallel_collect) {
        pool_.parallel_for(0, n, [&](std::size_t i) {
          staged_[i] = down(i) ? std::vector<Envelope<Payload>>{}
                               : hooks.collect(i);
          if (pull_graph != nullptr) stage_for_pull(i, round);
        });
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          staged_[i] = down(i) ? std::vector<Envelope<Payload>>{}
                               : hooks.collect(i);
        }
      }
    }
    clock.lap(Phase::kCollect);
    // ... and otherwise the posts + byte accounting replay serially in
    // node order.
    if (pull_graph == nullptr) {
      for (topology::NodeId i = 0; i < n; ++i) {
        for (auto& envelope : staged_[i]) {
          post(i, std::move(envelope), round);
        }
        staged_[i].clear();
      }
    }
    clock.lap(Phase::kPost);

    deliver_waves(hooks, n, round, pull_graph);
    clock.lap(Phase::kDelivery);
    if (pull_graph != nullptr) {
      fold_pulled(n);
      clock.lap(Phase::kPost, /*count=*/false);
    }
  }

  core::TrainResult run(RoundHooks<Payload>& hooks) override {
    SNAP_REQUIRE_MSG(hooks.evaluate != nullptr,
                     "run() requires an evaluate hook");
    core::ConvergenceDetector detector(config_.convergence);
    core::TrainResult result;
    double sim_seconds = 0.0;

    std::size_t round = 0;
    if (config_.checkpoint.resume && !config_.checkpoint.path.empty()) {
      // The transport must exist before its wire positions can be
      // restored — force the lazy build now.
      ensure_capacity(hooks.node_count);
      if (std::optional<RunCheckpoint> saved =
              load_run_checkpoint(config_.checkpoint.path)) {
        restore_from_checkpoint(*saved, hooks, detector, result,
                                sim_seconds, round);
      }
      // No (valid) blob: the crash predated the first checkpoint write,
      // so replay from round 0 — determinism makes the replay bitwise
      // the prefix the original run produced.
    }
    while (round < config_.convergence.max_iterations &&
           !detector.converged()) {
      ++round;
      step_round(hooks, round);

      PhaseClock clock(profile_);
      const RoundEval eval =
          hooks.evaluate(round, measures_accuracy(config_, round));

      core::IterationStats stats =
          shared_round_stats(eval, cost_ ? &*cost_ : nullptr,
                             config_.faults, round, hooks.node_count);
      sim_seconds += config_.timing.round_duration(
          config_.round_compute_flops, stats.max_node_inbound_bytes,
          stats.max_node_outbound_bytes);
      stats.sim_seconds = sim_seconds;
      if (config_.faults != nullptr) {
        stats.frames_dropped = round_frames_dropped_;
        stats.frames_corrupted = round_frames_corrupted_;
        stats.state_sync_bytes = transport_->state_sync_bytes();
      }
      stats.links_activated = round_links_activated_;
      if (hooks.annotate_stats) hooks.annotate_stats(stats);
      result.iterations.push_back(stats);

      detector.observe(eval.train_loss, eval.consensus_residual,
                       stats.evaluated ? stats.test_accuracy : -1.0);
      clock.lap(Phase::kEvaluate);
      if (hooks.end_round) hooks.end_round(round);
      maybe_write_checkpoint(round, hooks, result, sim_seconds);
      clock.lap(Phase::kEpochHooks);
    }

    result.converged = detector.converged();
    result.converged_after =
        result.converged ? detector.converged_after() : round;
    if (cost_) {
      result.total_bytes = cost_->total_bytes();
      result.total_cost = cost_->total_cost();
    }
    result.total_sim_seconds = sim_seconds;
    result.profile = profile_;
    return result;
  }

 protected:
  /// Round-preamble extension point for shared-clock subclasses.
  /// GossipFabric draws the round's activation set here and reports its
  /// size through `round_links_activated_` (stamped into
  /// IterationStats::links_activated; 0 means "every link eligible" —
  /// the plain sync semantics).
  virtual void prepare_round(std::size_t /*round*/,
                             RoundHooks<Payload>& /*hooks*/) {}

  const FabricConfig& fabric_config() const noexcept { return config_; }

  std::uint64_t round_links_activated_ = 0;

 private:
  // Staged replies from the mix phase, indexed by sender.
  class StagingSink final : public MessageSink<Payload> {
   public:
    explicit StagingSink(std::vector<std::vector<Envelope<Payload>>>* slots)
        : slots_(slots) {}
    void send(topology::NodeId from, topology::NodeId to, Payload payload,
              std::size_t wire_bytes, bool state_sync) override {
      SNAP_REQUIRE(from < slots_->size());
      (*slots_)[from].push_back(
          Envelope<Payload>{to, std::move(payload), wire_bytes, state_sync});
    }

   private:
    std::vector<std::vector<Envelope<Payload>>>* slots_;
  };

  /// Rebuilds every run()-owned piece of state from a round-aligned
  /// checkpoint so the loop continues at `saved.round + 1` bitwise
  /// identically to a run that never stopped. The algorithm blob is
  /// applied first (a truncated blob aborts before anything mutates);
  /// the fault schedule is re-materialized by replaying the seeded
  /// draws — churn hooks do NOT re-fire, their effects already live in
  /// the algorithm blob. The convergence detector is restored by
  /// re-observing the saved series exactly as run() observed it.
  void restore_from_checkpoint(const RunCheckpoint& saved,
                               RoundHooks<Payload>& hooks,
                               core::ConvergenceDetector& detector,
                               core::TrainResult& result,
                               double& sim_seconds, std::size_t& round) {
    SNAP_REQUIRE_MSG(hooks.load_state != nullptr,
                     "checkpoint resume requires a load_state hook");
    SNAP_REQUIRE_MSG(saved.round >= 1 &&
                         saved.iterations.size() == saved.round,
                     "checkpoint round/series mismatch: round "
                         << saved.round << " with "
                         << saved.iterations.size() << " iterations");
    const auto saved_round = static_cast<std::size_t>(saved.round);
    common::ByteReader algo(saved.algorithm_state);
    SNAP_REQUIRE_MSG(hooks.load_state(algo) && algo.remaining() == 0,
                     "checkpoint algorithm blob failed to restore");
    if (config_.faults != nullptr) {
      config_.faults->ensure_round(saved_round);
      SNAP_REQUIRE_MSG(
          config_.faults->membership_epoch(saved_round) ==
              saved.membership_epoch,
          "checkpoint was written against a different fault schedule "
          "(membership epoch "
              << saved.membership_epoch << " vs "
              << config_.faults->membership_epoch(saved_round) << ")");
      SNAP_REQUIRE_MSG(saved.alive.size() == hooks.node_count,
                       "checkpoint alive mask sized for "
                           << saved.alive.size() << " nodes, hooks declare "
                           << hooks.node_count);
      for (topology::NodeId i = 0; i < hooks.node_count; ++i) {
        const std::uint8_t now =
            config_.faults->confirmed_down(saved_round, i) ? 0 : 1;
        SNAP_REQUIRE_MSG(saved.alive[i] == now,
                         "checkpoint alive mask disagrees with the "
                         "replayed fault schedule at node "
                             << i);
      }
      // A membership epoch may have grown the topology since round 0;
      // refresh unconditionally so post-resume flows route exactly as
      // pre-crash ones did.
      refresh_routes(cost_, *config_.faults);
    }
    result.iterations = saved.iterations;
    sim_seconds = saved.sim_seconds;
    for (const core::IterationStats& stats : saved.iterations) {
      detector.observe(stats.train_loss, stats.consensus_residual,
                       stats.evaluated ? stats.test_accuracy : -1.0);
    }
    if (cost_) cost_->restore_totals(saved.total_bytes, saved.total_cost);
    common::ByteReader wire(saved.wire_state);
    SNAP_REQUIRE_MSG(transport_->restore_wire_state(wire) &&
                         wire.remaining() == 0,
                     "checkpoint wire blob failed to restore");
    round = static_cast<std::size_t>(saved.round);
  }

  /// Writes the round-aligned checkpoint after end_round on configured
  /// rounds. Runs serially (nothing else touches state here), writes
  /// atomically (tmp + rename), and is deterministic: a resumed run
  /// re-writes byte-identical blobs on the rounds it replays past.
  void maybe_write_checkpoint(std::size_t round, RoundHooks<Payload>& hooks,
                              const core::TrainResult& result,
                              double sim_seconds) {
    const CheckpointConfig& ckpt = config_.checkpoint;
    if (ckpt.every == 0 || ckpt.path.empty() || round % ckpt.every != 0) {
      return;
    }
    SNAP_REQUIRE_MSG(hooks.save_state != nullptr,
                     "checkpoint.every requires a save_state hook");
    RunCheckpoint snapshot;
    snapshot.round = round;
    snapshot.sim_seconds = sim_seconds;
    if (config_.faults != nullptr) {
      snapshot.membership_epoch = config_.faults->membership_epoch(round);
      snapshot.alive.resize(hooks.node_count);
      for (topology::NodeId i = 0; i < hooks.node_count; ++i) {
        snapshot.alive[i] =
            config_.faults->confirmed_down(round, i) ? 0 : 1;
      }
    }
    snapshot.iterations = result.iterations;
    if (cost_) {
      snapshot.total_bytes = cost_->total_bytes();
      snapshot.total_cost = cost_->total_cost();
    }
    common::ByteWriter wire;
    transport_->save_wire_state(wire);
    snapshot.wire_state = wire.take();
    common::ByteWriter algo;
    hooks.save_state(algo);
    snapshot.algorithm_state = algo.take();
    SNAP_REQUIRE_MSG(save_run_checkpoint(ckpt.path, snapshot),
                     "failed to write checkpoint " << ckpt.path);
  }

  void ensure_capacity(std::size_t n) {
    if (staged_.size() != n) {
      staged_.assign(n, {});
      replies_.assign(n, {});
      tallies_.assign(n, {});
      corrupted_.assign(n, {});
      pulled_.assign(n, 0);
      if (transport_ == nullptr) {
        transport_ = std::make_unique<net::SimTransport<Payload>>(n);
      }
      sim_ = dynamic_cast<net::SimTransport<Payload>*>(transport_.get());
      SNAP_REQUIRE_MSG(transport_->node_count() == n,
                       "transport built for " << transport_->node_count()
                                              << " nodes, hooks declare "
                                              << n);
      transport_->attach_cost(cost_ ? &*cost_ : nullptr);
    }
  }

  /// Charges and posts one envelope through the transport seam.
  /// wire_bytes == 0 marks a co-located hand-off: nothing crosses the
  /// network and nothing is charged (the transport still carries it so
  /// the receiver's mix phase is uniform). With a FaultInjector: frames
  /// on a down link (or touching a down node) are lost before the wire;
  /// corrupted frames cross the wire — and are charged — but fail
  /// decode and are never delivered. The fault draws are seeded, so
  /// every shard replica resolves them identically and corrupted frames
  /// never need to travel.
  void post(topology::NodeId from, Envelope<Payload> envelope,
            std::size_t round) {
    if (net::FaultInjector* faults = config_.faults;
        faults != nullptr && !envelope.state_sync) {
      // STATE_SYNC handoffs bypass the loss/corruption draws: they ride
      // the reliable coordinated join handshake (and this round's link
      // state was materialized before the join was announced).
      if (faults->link_down(round, from, envelope.to)) {
        ++round_frames_dropped_;
        return;
      }
      if (envelope.wire_bytes > 0 &&
          faults->frame_corrupted(round, from, envelope.to, 0)) {
        transport_->charge(from, envelope.to, envelope.wire_bytes,
                           envelope.state_sync);
        ++round_frames_corrupted_;
        return;
      }
    }
    transport_->post(from, envelope.to, std::move(envelope.payload),
                     envelope.wire_bytes, envelope.state_sync);
  }

  /// Posts the staged mix/churn replies serially in sender order.
  /// Returns whether there were any.
  bool post_replies(std::size_t n, std::size_t round) {
    bool any = false;
    for (topology::NodeId i = 0; i < n; ++i) {
      for (auto& envelope : replies_[i]) {
        post(i, std::move(envelope), round);
        any = true;
      }
      replies_[i].clear();
    }
    return any;
  }

  /// Flips the transport and runs mix waves until no node replies. Wave 1
  /// is the round's main exchange; the parameter server's push-back
  /// lands in wave 2. Bounded to catch hooks that ping-pong forever.
  /// With `pull_graph`, wave 1's receivers first pull their neighbors'
  /// staged frames, and empty their inboxes once mixed.
  void deliver_waves(RoundHooks<Payload>& hooks, std::size_t n,
                     std::size_t round, const topology::Graph* pull_graph) {
    if (!hooks.mix) return;
    constexpr std::size_t kMaxWaves = 8;
    StagingSink sink(&replies_);
    for (std::size_t wave = 0; wave < kMaxWaves; ++wave) {
      transport_->flip_round();
      const bool pull = pull_graph != nullptr && wave == 0;
      // Receivers touch only their own state (and their own reply
      // slot), so the wave fans out; replies replay serially below.
      pool_.parallel_for(0, n, [&](std::size_t i) {
        if (pull) pull_into(i, *pull_graph);
        // A down node processes nothing this round.
        if (config_.faults == nullptr || !config_.faults->node_down(round, i)) {
          const auto& inbox = transport_->inbox(i);
          hooks.mix(i, std::span<const Delivery<Payload>>(inbox), sink);
        }
        if (pull) sim_->clear_inbox(i);
      });
      if (!post_replies(n, round)) {
        // Drain the (empty) outgoing buffers so the next round's inbox
        // does not replay this wave's messages.
        transport_->flip_round();
        return;
      }
    }
    SNAP_REQUIRE_MSG(false, "mix-phase replies did not quiesce within "
                                << kMaxWaves << " waves");
  }

  /// The graph whose one-hop frames the receivers pull, or nullptr for
  /// the serial post: pull needs the sim transport, a parallel collect
  /// (the one-hop contract), a mix to pull into, and a topology.
  const topology::Graph* pull_delivery_graph(
      const RoundHooks<Payload>& hooks) const {
    if (sim_ == nullptr || !hooks.collect || !hooks.parallel_collect ||
        !hooks.mix || !cost_) {
      return nullptr;
    }
    const topology::Graph& graph = config_.faults != nullptr
                                       ? config_.faults->current_graph()
                                       : *config_.graph;
    SNAP_REQUIRE_MSG(graph.node_count() == hooks.node_count,
                     "graph has " << graph.node_count()
                                  << " nodes, hooks declare "
                                  << hooks.node_count);
    return &graph;
  }

  /// Sender half of pull delivery, in node i's collect task: applies
  /// post()'s fault draws to i's staged frames and tallies their
  /// charges. What stays staged is [deliverable | corrupted], each run
  /// stably sorted by receiver so a receiver finds its frames by binary
  /// search in their original order. Corrupted frames are charged but
  /// never delivered; dropped ones leave. STATE_SYNC handoffs never come
  /// through here: they ride the serial churn and partition hooks.
  void stage_for_pull(topology::NodeId i, std::size_t round) {
    std::vector<Envelope<Payload>>& out = staged_[i];
    SenderTally& tally = tallies_[i];
    tally = SenderTally{};
    corrupted_[i].clear();
    std::size_t kept = 0;
    for (std::size_t k = 0; k < out.size(); ++k) {
      Envelope<Payload>& envelope = out[k];
      SNAP_REQUIRE_MSG(!envelope.state_sync,
                       "collect sent a STATE_SYNC frame; handoffs belong "
                       "to on_churn / on_partition");
      if (const net::FaultInjector* faults = config_.faults;
          faults != nullptr) {
        if (faults->link_down(round, i, envelope.to)) {
          ++tally.dropped;
          continue;
        }
        if (envelope.wire_bytes > 0 &&
            faults->frame_corrupted(round, i, envelope.to, 0)) {
          tally.bytes += envelope.wire_bytes;
          ++tally.corrupted;
          corrupted_[i].push_back({envelope.to, envelope.wire_bytes});
          continue;
        }
      }
      tally.bytes += envelope.wire_bytes;
      if (kept != k) out[kept] = std::move(envelope);
      ++kept;
    }
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(kept), out.end());
    tally.frames = kept + corrupted_[i].size();
    sort_by_receiver(out);
    sort_by_receiver(corrupted_[i]);
  }

  /// Stable insertion sort on `to`: allocation-free, and linear on the
  /// usual neighbor-ordered collect output.
  template <typename Item>
  static void sort_by_receiver(std::vector<Item>& items) {
    for (std::size_t k = 1; k < items.size(); ++k) {
      for (std::size_t m = k; m > 0 && items[m].to < items[m - 1].to; --m) {
        std::swap(items[m], items[m - 1]);
      }
    }
  }

  /// Receiver half of pull delivery, in node j's wave-1 mix task: moves
  /// each neighbor's frames for j into j's inbox in ascending sender id
  /// and charges j's inbound slot (corrupted frames included).
  void pull_into(topology::NodeId j, const topology::Graph& graph) {
    const auto to_j = [](const auto& item, topology::NodeId to) {
      return item.to < to;
    };
    std::uint64_t bytes = 0;
    std::size_t pulled = 0;
    for (const topology::NodeId s : graph.neighbors(j)) {
      std::vector<Envelope<Payload>>& out = staged_[s];
      for (auto it = std::lower_bound(out.begin(), out.end(), j, to_j);
           it != out.end() && it->to == j; ++it) {
        bytes += it->wire_bytes;
        sim_->deliver(s, j, std::move(it->payload));
        ++pulled;
      }
      const std::vector<Charge>& charges = corrupted_[s];
      for (auto it = std::lower_bound(charges.begin(), charges.end(), j, to_j);
           it != charges.end() && it->to == j; ++it) {
        bytes += it->wire_bytes;
        ++pulled;
      }
    }
    if (bytes > 0) cost_->record_received(j, bytes);
    pulled_[j] = pulled;
  }

  /// Serial end of pull delivery: folds the sender tallies (order-free
  /// uint64 sums) and checks that every staged frame was pulled exactly
  /// once — a frame to a non-neighbor or to self never is. The pulled
  /// envelopes stay behind, moved-from, until the next collect
  /// overwrites their slot on the pool.
  void fold_pulled(std::size_t n) {
    std::size_t staged = 0;
    std::size_t pulled = 0;
    for (topology::NodeId i = 0; i < n; ++i) {
      const SenderTally& tally = tallies_[i];
      staged += tally.frames;
      pulled += pulled_[i];
      // Every pulled frame crossed exactly one hop.
      if (tally.bytes > 0) cost_->record_sent(i, tally.bytes, tally.bytes);
      round_frames_dropped_ += tally.dropped;
      round_frames_corrupted_ += tally.corrupted;
    }
    SNAP_REQUIRE_MSG(pulled == staged,
                     staged - pulled
                         << " staged frame(s) went to a non-neighbor or to "
                            "the sender itself (collect must address "
                            "one-hop neighbors only; see "
                            "RoundHooks::parallel_collect)");
  }

  /// One sender's charges for a round's pulled frames.
  struct SenderTally {
    std::size_t frames = 0;  ///< staged for delivery or corrupted
    std::uint64_t bytes = 0;
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
  };
  /// A corrupted frame: charged to its receiver, never delivered.
  struct Charge {
    topology::NodeId to = 0;
    std::size_t wire_bytes = 0;
  };

  FabricConfig config_;
  common::ThreadPool pool_;
  std::optional<net::CostTracker> cost_;
  std::unique_ptr<net::Transport<Payload>> transport_;
  /// transport_ when it is the sim (the only pull-capable backend).
  net::SimTransport<Payload>* sim_ = nullptr;
  std::vector<std::vector<Envelope<Payload>>> staged_;
  std::vector<std::vector<Envelope<Payload>>> replies_;
  // Pull delivery's per-node slots: by sender (tallies, corrupted
  // frames) and by receiver (frames pulled this round).
  std::vector<SenderTally> tallies_;
  std::vector<std::vector<Charge>> corrupted_;
  std::vector<std::size_t> pulled_;
  /// The nodes whose gradient this process computes this round.
  std::vector<topology::NodeId> computed_;
  std::size_t current_round_ = 0;
  std::uint64_t round_frames_dropped_ = 0;
  std::uint64_t round_frames_corrupted_ = 0;
  PhaseProfile profile_;
};

}  // namespace snap::runtime
