// Pluggable round fabric — the execution layer under every trainer.
//
// The paper's algorithms (SNAP's filtered EXTRA, the parameter server,
// and the test-only DGD baseline) are *round-structured*: each node repeatedly runs
//     local update → filter/encode → deliver → mix → evaluate.
// What used to be four hand-rolled copies of that loop is now one
// algorithm-side contract (RoundHooks) executed by a RoundFabric:
//
//   - SyncFabric — the paper's shared-clock exchange (§II-B/§IV-D).
//     Reproduces the pre-refactor semantics bit for bit, including the
//     `threads` determinism contract: parallel phases write only
//     per-node slots, and everything order-dependent (socket and
//     multi-hop posts, convergence folds) replays serially in node
//     order. On the sim transport, one-hop frames are pulled by their
//     receivers in parallel, in that same order (see sync_fabric.hpp).
//     Simulated time comes from the closed-form TimingModel.
//
//   - AsyncFabric — event-driven execution on net::EventQueue. Each
//     node has its own compute-time distribution, each link a
//     latency/bandwidth pair; frames arrive when they arrive and nodes
//     mix with whatever neighbor parameters are freshest. Simulated
//     time is native and staleness is tracked per directed edge.
//
// The hooks are deliberately scheme-agnostic: a hook never touches a
// transport, a cost tracker, or a clock — it only transforms node state
// and emits typed envelopes. That is what makes the two fabrics
// interchangeable underneath an unchanged algorithm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/binary_io.hpp"
#include "common/thread_pool.hpp"
#include "core/training.hpp"
#include "net/cost_model.hpp"
#include "net/fault_injector.hpp"
#include "net/transport.hpp"
#include "runtime/gossip.hpp"
#include "runtime/run_checkpoint.hpp"
#include "runtime/timing.hpp"
#include "topology/graph.hpp"

namespace snap::runtime {

/// One outbound message produced by a node's filter/encode phase.
/// `wire_bytes` is the full on-wire size charged to the byte accounting
/// and serialized through NIC bandwidth by the async fabric; 0 marks a
/// free local hand-off (no charge, no transfer time).
template <typename Payload>
struct Envelope {
  topology::NodeId to = 0;
  Payload payload{};
  std::size_t wire_bytes = 0;
  /// Marks a full-model membership handoff (STATE_SYNC on the wire):
  /// the bytes are charged like any frame, but tallied separately so
  /// warm-start ablations can report the handoff overhead.
  bool state_sync = false;
};

/// What a node receives: the fabric delivers the transport's own
/// message type, so sync delivery is literally the transport's inbox.
template <typename Payload>
using Delivery = typename net::Transport<Payload>::Message;

/// What the evaluate phase reports back to the fabric each round.
struct RoundEval {
  double train_loss = 0.0;
  double consensus_residual = 0.0;
  double test_accuracy = 0.0;
  bool evaluated = false;  ///< whether test_accuracy was computed
};

/// Lets the mix phase reply with follow-up messages in the same round
/// (the parameter server's push-back). Sync fabrics deliver these in an
/// extra delivery wave; async fabrics put them on the wire immediately.
template <typename Payload>
class MessageSink {
 public:
  /// `state_sync` marks a membership handoff frame (see Envelope).
  virtual void send(topology::NodeId from, topology::NodeId to,
                    Payload payload, std::size_t wire_bytes,
                    bool state_sync = false) = 0;

 protected:
  ~MessageSink() = default;
};

/// The algorithm side of a round, as per-phase callbacks. The per-node
/// phases (local_update, mix, and collect unless parallel_collect is
/// false) fan out on the fabric's pool; their bodies must write only
/// node-owned state (the ThreadPool determinism contract). Unset
/// std::function members are simply skipped.
///
/// Call order per round r (sync; async interleaves rounds per node but
/// preserves the per-node order):
///   begin_round(r)                       [serial, once per round]
///   local_gradient(i)                    [per node the transport
///                                         computes]
///   ... socket transport exchanges gradient_row(i) ...
///   local_update(i)                      [per node]
///   collect(i) -> envelopes              [per node]
///   ... fabric sends, charges bytes ...
///   mix(i, deliveries, sink)             [per receiving node]
///   evaluate(r, measure_accuracy)        [serial]
///   end_round(r)                         [serial, after the fabric has
///                                         observed the eval; before
///                                         the round's checkpoint]
template <typename Payload>
struct RoundHooks {
  std::size_t node_count = 0;

  /// Serial round preamble (advance failure draws, draw minibatches).
  std::function<void(std::size_t round)> begin_round;

  /// Owner-computes model work: node `node`'s gradient, written into
  /// gradient_row(node). Over a socket transport the shared-clock
  /// fabrics run it only on live nodes the transport computes, then
  /// exchange the rows so every process holds every live node's row
  /// before local_update. On the sim (which computes every node) and
  /// on the async fabric it runs right before the node's local_update.
  /// Set both or neither.
  std::function<void(topology::NodeId node)> local_gradient;
  std::function<std::span<double>(topology::NodeId node)> gradient_row;

  /// Node-local compute: EXTRA step / view rotation (and the gradient,
  /// for schemes without local_gradient).
  std::function<void(topology::NodeId node)> local_update;

  /// Filter + frame: returns everything `node` transmits this round.
  std::function<std::vector<Envelope<Payload>>(topology::NodeId node)>
      collect;
  /// Runs collect on the pool. It is also the one-hop contract: every
  /// envelope collect returns goes to a neighbor of its sender in the
  /// current graph. On the sim transport the shared-clock fabrics then
  /// deliver by pull (each receiver takes its neighbors' frames in
  /// parallel) and fail loudly on a frame to a non-neighbor or to self.
  /// Set false for multi-hop flows (the parameter server's hub): those
  /// are collected, charged and posted serially in node order.
  bool parallel_collect = true;

  /// Folds arrived messages into `node`'s state. Sync fabrics deliver a
  /// whole round's inbox at once; the async fabric delivers frames one
  /// at a time, as they arrive.
  std::function<void(topology::NodeId node,
                     std::span<const Delivery<Payload>> deliveries,
                     MessageSink<Payload>& sink)>
      mix;

  /// Serial round postamble: observers and SNAP's synchronized EXTRA
  /// restart, on every fabric. Runs after the fabric recorded the
  /// round's stats and fed the convergence detector, and before the
  /// round's checkpoint is written.
  std::function<void(std::size_t round)> end_round;

  /// Whole-system measurement: aggregate loss, consensus residual and
  /// (when `measure_accuracy`) test accuracy. Required by run().
  std::function<RoundEval(std::size_t round, bool measure_accuracy)>
      evaluate;

  /// Async-only gate: may `node` begin `round`? Defaults to "always" —
  /// free-running nodes. The parameter server uses it to wait for the
  /// previous round's parameter push.
  std::function<bool(topology::NodeId node, std::size_t round)> ready;

  /// Async-only gate: is round `round` complete enough to evaluate?
  /// Defaults to "every node finished its local round". The parameter
  /// server additionally waits for the server step.
  std::function<bool(std::size_t round)> eval_ready;

  /// Fault-layer callback: membership changes the injector *confirmed*
  /// — a crash that outlived the confirmation window, the restart that
  /// ended one, or a coordinated join/graceful-leave. Serial. SyncFabric
  /// fires it at the top of the round with the whole round's delta;
  /// AsyncFabric fires failure-detected transitions (crashed/restarted)
  /// per node when the silence window elapses / the node wakes, and
  /// coordinated transitions (joined/left) when the round they were
  /// announced at begins. The sink lets schemes react on the wire
  /// immediately (the parameter server re-aggregates without the dead
  /// worker's gradient; SNAP donates a STATE_SYNC warm start to a
  /// joiner).
  std::function<void(std::size_t round, const net::ChurnDelta& delta,
                     MessageSink<Payload>& sink)>
      on_churn;

  /// Fault-layer callback: the component structure of the *effective*
  /// alive graph changed — a sustained link outage (or scheduled cut)
  /// split the topology, a heal merged components back, or confirmed
  /// churn changed the labeling. Fired serially AFTER on_churn in the
  /// same round preamble, so crash-driven label changes see the
  /// post-churn membership, and heal-time boundary syncs staged through
  /// the sink ride the round's first delivery wave (before any mix).
  /// The delta carries the new labeling, the healed boundary edges, and
  /// the monotone partition epoch; schemes use it to re-project W into
  /// per-component blocks (split) and to exchange boundary state before
  /// the merged component restarts (heal). Only fired when a
  /// FaultInjector is attached and tracking partitions.
  std::function<void(std::size_t round, const net::PartitionDelta& delta,
                     MessageSink<Payload>& sink)>
      on_partition;

  /// Checkpoint hooks: serialize / restore everything the scheme owns
  /// that the fabric cannot see — trainer params + EXTRA memory, APE
  /// controllers, RNG stream positions, membership backlog. save_state
  /// runs serially right after end_round on checkpoint rounds;
  /// load_state runs once before round 1 on resume and returns false if
  /// the blob is unusable (wrong shape/version), which aborts the
  /// resume loudly rather than continuing from half a state. Schemes
  /// that leave these unset cannot be checkpointed.
  std::function<void(common::ByteWriter& writer)> save_state;
  std::function<bool(common::ByteReader& reader)> load_state;

  /// Gossip-layer callback: the links the scheduler activated for this
  /// round (sorted, u < v, alive endpoints only). Fired serially in the
  /// round preamble — after confirmed churn is surfaced, before
  /// begin_round — by GossipFabric only. A scheme that participates in
  /// gossip transmits only on these links and builds its per-activation
  /// effective mixing from them; a scheme that leaves this unset is run
  /// with full sync semantics (the degenerate path — the parameter
  /// server ignores the activation schedule entirely).
  std::function<void(std::size_t round,
                     std::span<const ActivatedLink> links)>
      on_activation;

  /// Scheme-owned telemetry: invoked serially on each round's
  /// IterationStats right before the fabric records it, so schemes can
  /// stamp columns the fabric cannot see (the topology sparsifier's
  /// links_pruned / effective_edges / slem_after_prune). Must touch
  /// only stats fields — the fabric has already filled its own.
  std::function<void(core::IterationStats& stats)> annotate_stats;
};

/// Which execution engine runs the rounds.
enum class FabricKind {
  kSync,    ///< shared-clock rounds, bitwise-deterministic (default)
  kAsync,   ///< event-driven, heterogeneous compute/links, staleness
  kGossip,  ///< shared clock, but only a sparse activated link subset
            ///< exchanges each tick (randomized pairwise mixing)
};

std::string_view fabric_name(FabricKind kind) noexcept;

/// Parses "sync" / "async" / "gossip" (CLI spelling). Empty optional on
/// anything else.
std::optional<FabricKind> parse_fabric_kind(std::string_view name) noexcept;

/// Per-link parameter override for the async fabric. Matches the
/// undirected pair {u, v}; zero fields inherit the global defaults.
struct LinkOverride {
  topology::NodeId u = 0;
  topology::NodeId v = 0;
  double latency_s = 0.0;               ///< one-way, total (not per hop)
  double bandwidth_bytes_per_s = 0.0;   ///< replaces both endpoints' NICs
};

/// Heterogeneity model for AsyncFabric: where simulated time comes from.
struct AsyncTimingConfig {
  /// Mean seconds one node spends on its local update each round.
  double compute_s = 1e-3;
  /// Per-node compute-time overrides (empty = homogeneous; otherwise
  /// one entry per node). This is the straggler knob.
  std::vector<double> node_compute_s;
  /// Relative uniform jitter on every compute draw: each round's
  /// compute time is base · (1 + U[−jitter, +jitter]). 0 = none.
  double compute_jitter = 0.0;
  /// Access-link bandwidth, bytes/second (paper testbed: 1 Gbps).
  double nic_bandwidth_bytes_per_s = 1e9 / 8.0;
  /// Per-node NIC overrides (empty = homogeneous).
  std::vector<double> node_nic_bandwidth;
  /// One-way propagation per hop, seconds (multi-hop PS flows pay it
  /// per hop of the least-hop route).
  double link_latency_s = 1e-3;
  /// Per-link exceptions to the defaults above.
  std::vector<LinkOverride> link_overrides;
  /// SSP-style bound: a node may run at most this many rounds ahead of
  /// the slowest graph neighbor. 0 = unbounded (fully free-running).
  std::size_t max_staleness_rounds = 0;
  /// Seeds the compute-jitter streams (one forked stream per node).
  std::uint64_t seed = 1;
};

/// Evenly spreads per-node compute times over [base_s, base_s·(1 +
/// spread)]: node 0 is the fastest, node n−1 the slowest. spread = 0
/// (or n = 1) is homogeneous. The standard heterogeneous-node scenario
/// for benches and the CLI.
std::vector<double> linear_compute_spread(std::size_t n, double base_s,
                                          double spread);

/// Recovery semantics for runs with a FaultInjector attached.
struct FaultRecoveryConfig {
  /// Async: silence window (seconds) after which a neighbor that has
  /// not delivered a frame is *suspected* (RoundFabric::suspected) and
  /// a dormant node's crash is confirmed to the scheme (on_churn).
  /// 0 = derive from the timing model (a generous multiple of the
  /// slowest per-round compute + latency).
  double suspect_after_s = 0.0;
  /// Async: backoff before the first retransmission of a frame lost to
  /// a down link or corruption; doubles per attempt.
  double retry_backoff_s = 0.02;
  /// Async: bounded retransmissions per frame. 0 disables retry.
  std::size_t max_retries = 2;
  /// Ceiling on the doubled backoff (seconds). The doubling sequence
  /// retry_backoff_s · 2^attempt overflows a double's exponent range
  /// after ~1024 attempts; every consumer of these semantics (async
  /// retransmission, the socket transport's dial and reconnect loops)
  /// must go through bounded_backoff, which caps at this value.
  double max_backoff_s = 5.0;
};

/// The backoff before retry `attempt` (0-based) under `recovery`:
/// retry_backoff_s · 2^attempt, saturated at max_backoff_s. Overflow-
/// safe for any attempt count — the exponent is clamped before the
/// multiply, so the result never becomes inf even at attempt ≫ 1024.
inline double bounded_backoff(const FaultRecoveryConfig& recovery,
                              std::size_t attempt) noexcept {
  const double cap =
      recovery.max_backoff_s > 0.0 ? recovery.max_backoff_s : 5.0;
  if (recovery.retry_backoff_s <= 0.0) return 0.0;
  if (recovery.retry_backoff_s >= cap) return cap;
  // 2^63 · any positive backoff already exceeds every sane cap; clamping
  // the exponent keeps the shift defined and the double finite.
  const std::size_t exponent = attempt < 63 ? attempt : 63;
  const double scaled =
      recovery.retry_backoff_s *
      static_cast<double>(std::uint64_t{1} << exponent);
  return scaled < cap ? scaled : cap;
}

/// The run settings every trainer takes (SNAP, the parameter server,
/// and the Scenario harness that forwards them to either).
struct RunConfig {
  core::ConvergenceCriteria convergence;
  /// Threads for the per-node phases of each round (0 = one per
  /// hardware thread, 1 = fully serial). Results are bitwise identical
  /// for every value: parallel regions write only per-node slots, and
  /// every reduction (byte accounting, transport delivery, loss/mean/
  /// residual folds) runs serially in fixed node order afterwards.
  std::size_t threads = 1;
  /// Generalized fault process: bursty link outages, scheduled/random
  /// node crash-restart and join/leave, frame corruption
  /// (net::FaultPlan). Default fault-free.
  net::FaultPlan faults;
  /// Recovery semantics when faults are active (async suspicion window,
  /// bounded retransmission).
  FaultRecoveryConfig recovery;
  /// Execution engine: kSync is the paper's shared-clock exchange
  /// (bitwise-deterministic), kAsync the event-driven runtime timed by
  /// `async`, kGossip a sparse activated link subset per tick.
  FabricKind fabric = FabricKind::kSync;
  /// Heterogeneity model (per-node compute, NIC bandwidth, link
  /// latency) used when fabric == kAsync.
  AsyncTimingConfig async;
  /// Closed-form round timing that stamps sim_seconds under kSync.
  TimingModel timing;
  /// Round-aligned crash checkpointing (sync/gossip fabrics only):
  /// `checkpoint.every > 0` writes a RunCheckpoint to `checkpoint.path`
  /// after every such round; `checkpoint.resume` restores from it before
  /// round 1 (missing file = cold start). The blob carries the complete
  /// scheme state, so a resumed run is bitwise identical to one that
  /// never stopped.
  CheckpointConfig checkpoint;
};

/// Everything a fabric needs besides the algorithm itself.
struct FabricConfig {
  /// Thread-pool width for the parallel phases (0 = hardware threads).
  std::size_t threads = 1;
  /// Topology for byte/cost accounting and hop-aware latency. nullptr
  /// disables accounting (an abstract mixing-matrix run, as the
  /// test-only DGD baseline does).
  const topology::Graph* graph = nullptr;
  core::ConvergenceCriteria convergence;
  core::EvalConfig eval;
  /// Closed-form round timing used by SyncFabric's sim_seconds stamp.
  TimingModel timing;
  /// Per-node per-round compute cost fed to `timing` (FLOPs).
  double round_compute_flops = 0.0;
  /// Optional fault process. Borrowed, not owned — must outlive the
  /// fabric. The fabric materializes rounds (ensure_round) serially and
  /// applies the schedule: down nodes skip their phases (sync) or go
  /// dormant (async), frames on down links / to down nodes are
  /// dropped, corrupted frames are charged but not delivered, and
  /// confirmed churn is surfaced through RoundHooks::on_churn.
  net::FaultInjector* faults = nullptr;
  /// Recovery knobs used when `faults` is set.
  FaultRecoveryConfig recovery;
  /// Round-aligned checkpointing (runtime::RunCheckpoint). Requires the
  /// scheme to provide RoundHooks::save_state/load_state. Sync and
  /// gossip fabrics only — the async fabric has no round barrier to
  /// align a checkpoint on.
  CheckpointConfig checkpoint;
};

/// The FabricConfig a trainer runs `run` with over `graph`. `injector`
/// (nullptr = fault-free) is borrowed and must outlive the fabric;
/// `round_compute_flops` is the slowest node's per-round gradient cost.
FabricConfig fabric_config(const RunConfig& run, const core::EvalConfig& eval,
                           const topology::Graph& graph,
                           net::FaultInjector* injector,
                           double round_compute_flops);

/// The IterationStats columns every fabric derives the same way for
/// `round`: the evaluation, the CostTracker tallies (this closes the
/// tracker's iteration; nullptr leaves them 0), and the FaultInjector's
/// round telemetry (nullptr: `node_count` alive, one component). The
/// caller adds what it measures itself — sim_seconds, staleness,
/// links_activated, and its own drop/corrupt/retry/state-sync tallies.
core::IterationStats shared_round_stats(const RoundEval& eval,
                                        net::CostTracker* cost,
                                        const net::FaultInjector* faults,
                                        std::size_t round,
                                        std::size_t node_count);

/// Whether `round` measures test accuracy: every `eval.every` rounds
/// (0 counts as 1) and always on the last round.
bool measures_accuracy(const FabricConfig& config, std::size_t round);

/// After a membership epoch: rebuilds `cost`'s routing table over the
/// injector's current graph, which a join may have grown. Routing stays
/// tolerant, since latent joiners may still be isolated. No-op without
/// a tracker.
void refresh_routes(std::optional<net::CostTracker>& cost,
                    const net::FaultInjector& faults);

/// Executes RoundHooks until convergence (or max_iterations). The
/// fabric owns everything execution-side: the clock, the message
/// transport, byte/cost accounting, the convergence detector, and the
/// per-iteration stats series. The returned TrainResult has every field
/// populated except the scheme-specific final_* summary, which the
/// caller fills after run() returns.
template <typename Payload>
class RoundFabric {
 public:
  virtual ~RoundFabric() = default;

  virtual core::TrainResult run(RoundHooks<Payload>& hooks) = 0;

  /// The pool the parallel phases (and callers' own folds) run on.
  virtual common::ThreadPool& pool() noexcept = 0;

  /// Fault-layer failure detector: does `observer` currently suspect
  /// `neighbor` of being down? Schemes use it to stop waiting on a
  /// silent peer (SNAP's paced ready gate). Sync fabrics answer from
  /// the injector's confirmed state; the async fabric also counts a
  /// neighbor silent past the configured window. Always false without
  /// a FaultInjector.
  virtual bool suspected(topology::NodeId /*observer*/,
                         topology::NodeId /*neighbor*/) const {
    return false;
  }
};

}  // namespace snap::runtime
