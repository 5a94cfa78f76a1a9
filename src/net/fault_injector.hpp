// Deterministic fault processes for the round fabrics.
//
// The paper (§IV-D, Fig. 9) models stragglers as a memoryless
// per-round Bernoulli coin over links (the original LinkFailureModel,
// kept as a test reference in tests/oracle/). FaultInjector
// generalizes that single coin into a seeded fault *plan*:
//
//   - bursty link outages: a per-link Gilbert–Elliott two-state chain
//     (up → down with `link_enter_burst`, down → up with
//     `link_exit_burst`), so outages cluster the way congestion does.
//     Setting exit = 1 − enter degenerates to the paper's iid draw —
//     bit for bit, including the stream consumption, so legacy
//     `link_failure_probability` runs reproduce their old schedules.
//   - node churn: scheduled crash/restart windows plus a random
//     crash/restart chain per node, with a confirmation window that
//     separates a blip from a crash the system should react to.
//   - frame corruption: a stateless per-(round, link, attempt) hash
//     draw, so retransmissions re-roll and query order never matters.
//   - elastic membership: latent nodes join mid-run (scheduled events
//     plus a random arrival chain), members drain gracefully and may
//     rejoin. A first-time joiner with no edges attaches to
//     `join_degree` alive members, growing the injector's own dynamic
//     copy of the graph; the membership stream is a separate rng fork,
//     so legacy fault schedules replay bitwise.
//
// The schedule for round r is a pure function of (plan, seed, graph):
// both fabrics replay the identical fault timeline regardless of event
// interleaving. Rounds are materialized in order by ensure_round()
// (serial, from the fabric's round preamble); every query is a const
// lookup against a materialized round and safe to call from parallel
// phases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "topology/graph.hpp"

namespace snap::net {

/// One scheduled crash window: the node is down for rounds
/// [crash_round, restart_round). restart_round == 0 means it never
/// returns. Rounds are 1-based, matching the fabric's round counter.
struct NodeCrashEvent {
  topology::NodeId node = 0;
  std::size_t crash_round = 0;
  std::size_t restart_round = 0;
};

/// One scheduled arrival: `node` (which must be latent, i.e. initially
/// absent) becomes a member at the start of join_round (1-based).
struct NodeJoinEvent {
  topology::NodeId node = 0;
  std::size_t join_round = 0;
};

/// One scheduled graceful departure: `node` leaves at leave_round and
/// rejoins at rejoin_round (0 = never returns). Unlike a crash, a leave
/// is announced — it is confirmed immediately, with no suspicion window.
struct NodeLeaveEvent {
  topology::NodeId node = 0;
  std::size_t leave_round = 0;
  std::size_t rejoin_round = 0;
};

/// One scheduled network partition: every listed edge is cut (carries
/// no frames) for rounds [start_round, heal_round). heal_round == 0
/// means the cut never heals. The edges must exist in the input graph;
/// cutting a (bridge) edge set that separates the graph is how a test
/// or bench provokes a split deterministically.
struct PartitionEvent {
  std::vector<std::pair<topology::NodeId, topology::NodeId>> edges;
  std::size_t start_round = 0;
  std::size_t heal_round = 0;
};

/// A seeded description of every fault process in a run. Default is
/// fault-free.
struct FaultPlan {
  /// Gilbert–Elliott link chain: P(up → down) per round.
  double link_enter_burst = 0.0;
  /// P(down → up) per round. With exit == 1 − enter the chain is the
  /// paper's memoryless draw; smaller exits make outages bursty.
  double link_exit_burst = 1.0;
  /// Per-round probability an alive node crashes (random churn).
  double crash_probability = 0.0;
  /// Per-round probability a randomly-crashed node restarts. 0 = never.
  double restart_probability = 0.0;
  /// Deterministic crash windows, applied on top of the random chain.
  std::vector<NodeCrashEvent> scheduled_crashes;
  /// Per-frame probability a transmitted frame is corrupted in flight.
  double frame_corruption_probability = 0.0;
  /// Consecutive down rounds before a node counts as *confirmed*
  /// crashed beyond the first (0 = confirm on the first down round).
  /// Shorter outages never surface as churn.
  std::size_t churn_confirm_rounds = 1;

  // --- Elastic membership ------------------------------------------------
  /// Nodes that start the run absent (not members). They hold shards and
  /// graph slots but neither compute nor communicate until they join.
  std::vector<topology::NodeId> latent_nodes;
  /// Deterministic arrivals, applied on top of the random arrival chain.
  std::vector<NodeJoinEvent> scheduled_joins;
  /// Deterministic graceful leave/rejoin windows for initial members.
  std::vector<NodeLeaveEvent> scheduled_leaves;
  /// Per-round probability an absent latent node joins (random arrival).
  double join_probability = 0.0;
  /// Per-round probability an alive member gracefully leaves.
  double leave_probability = 0.0;
  /// Per-round probability a departed node rejoins. 0 = never.
  double rejoin_probability = 0.0;
  /// Attachment edges a first-time joiner adds toward alive members
  /// (clamped to [1, alive member count]).
  std::size_t join_degree = 2;

  // --- Network partitions ------------------------------------------------
  /// Deterministic partition windows: seeded edge sets cut for a round
  /// range.
  std::vector<PartitionEvent> scheduled_partitions;
  /// Per-round probability a random partition begins while none is
  /// active: a BFS-grown region around a random member is severed from
  /// the rest for partition_duration rounds. Drawn from its own rng
  /// fork, so plans without it replay bitwise.
  double partition_probability = 0.0;
  /// How long a random partition lasts (rounds, >= 1).
  std::size_t partition_duration = 10;
  /// Outage-persistence window: an edge must be down (cut or burst) for
  /// strictly more than this many consecutive rounds before it drops
  /// out of the *effective* graph the component labeling sees. Keeps
  /// transient bursts from registering as splits.
  std::size_t partition_confirm_rounds = 1;

  /// The paper's Fig. 9 straggler model: iid per-round link failures
  /// with probability p, bitwise-identical to LinkFailureModel.
  static FaultPlan memoryless_links(double failure_probability);

  /// True when any fault process is active.
  bool any() const noexcept;
  /// True when nodes can go down (scheduled or random).
  bool has_node_faults() const noexcept;
  /// True when the member set can change mid-run (joins or leaves).
  bool has_membership() const noexcept;
  /// True when links can be partition-cut (scheduled or random).
  bool has_partitions() const noexcept;
};

/// Confirmed membership changes surfaced at one round. `crashed` and
/// `restarted` are failure-detected transitions of members; `joined`
/// (first joins and rejoins) and `left` (graceful departures) are
/// coordinated membership transitions, announced the round they happen.
struct ChurnDelta {
  std::vector<topology::NodeId> crashed;
  std::vector<topology::NodeId> restarted;
  std::vector<topology::NodeId> joined;
  std::vector<topology::NodeId> left;
  bool empty() const noexcept {
    return crashed.empty() && restarted.empty() && joined.empty() &&
           left.empty();
  }
};

/// A change in the component structure of the effective alive graph
/// (alive members ∧ sustained-up links), surfaced at the round the
/// labeling changed. The labels snapshot lets consumers rebuild
/// block-diagonal mixing matrices without re-deriving liveness, so
/// every fabric reacts to the identical structure at the identical
/// round.
struct PartitionDelta {
  /// Monotone partition epoch after this change (0 = never changed).
  std::size_t epoch = 0;
  /// Component count over the effective graph after the change.
  std::size_t components = 0;
  /// Per-node component label (topology::ComponentMap::kExcluded for
  /// non-members and confirmed-crashed nodes).
  std::vector<std::size_t> labels;
  /// Effective edges that newly reconnect nodes that were in *different*
  /// components last round — the boundary links a merge-on-heal state
  /// sync crosses. Join attachment edges are excluded (the join
  /// warm-start already syncs them).
  std::vector<std::pair<topology::NodeId, topology::NodeId>> healed_edges;
  bool split = false;   ///< component count increased
  bool merged = false;  ///< formerly separate components reconnected
  bool empty() const noexcept { return epoch == 0 && labels.empty(); }
};

class FaultInjector {
 public:
  /// Probabilities are clamped to [0, 1]; scheduled windows are
  /// validated against the graph. The rng seeds every stream; pass a
  /// fork of the run's root so schedules are reproducible from the
  /// printed seed.
  FaultInjector(const topology::Graph& graph, FaultPlan plan,
                common::Rng rng);

  /// Materializes fault state for rounds 1..round (in order, exactly
  /// once each). Serial: call from the round preamble, never from a
  /// parallel phase. All queries below require the round to have been
  /// materialized.
  void ensure_round(std::size_t round);

  std::size_t materialized_rounds() const noexcept {
    return rounds_.size();
  }

  /// True when the *link* {u, v} cannot carry frames in `round`: the
  /// burst chain holds it down, or either endpoint is crashed. The
  /// burst chain only exists for graph edges — for non-adjacent pairs
  /// (abstract mixing flows, multi-hop PS routes) only endpoint crashes
  /// apply.
  bool link_down(std::size_t round, topology::NodeId u,
                 topology::NodeId v) const;

  /// The burst chain alone (no endpoint-crash contribution);
  /// non-adjacent pairs are always false, matching LinkFailureModel.
  bool link_burst_down(std::size_t round, topology::NodeId u,
                       topology::NodeId v) const;

  /// True when node i is down in `round`: crashed (scheduled or
  /// random), or not a member (absent, departed, not yet joined).
  bool node_down(std::size_t round, topology::NodeId i) const;

  /// True when node i's absence is *known* in `round`: a crash past the
  /// confirmation window, or non-membership (a leave is announced, not
  /// suspected, so it is confirmed immediately).
  bool confirmed_down(std::size_t round, topology::NodeId i) const;

  /// Membership changes confirmed exactly at `round`.
  const ChurnDelta& churn_delta(std::size_t round) const;

  /// True when node i is a member (joined and not departed) in `round`.
  bool member(std::size_t round, topology::NodeId i) const;

  /// True when node i is a member before round 1 (not latent).
  bool initial_member(topology::NodeId i) const;

  /// Members that are not crashed in `round`.
  std::size_t alive_member_count(std::size_t round) const;

  /// Monotone epoch counter: incremented every round whose delta is
  /// non-empty. All consumers of one (plan, seed, graph) observe the
  /// same epoch at the same round on both fabrics.
  std::size_t membership_epoch(std::size_t round) const;

  /// The dynamic topology: the input graph plus every attachment edge
  /// grown by joins materialized so far. Stable between ensure_round
  /// calls; safe to read from parallel query phases.
  const topology::Graph& current_graph() const noexcept {
    return dynamic_graph_;
  }

  /// True when the component structure is being tracked (any process
  /// that can change it is active). When false, every round is one
  /// whole component at partition epoch 0 and no labeling is computed.
  bool tracks_partitions() const noexcept;

  /// True when {u, v} is cut by an active partition event in `round`
  /// (scheduled or random; persistence window not applied — a cut link
  /// drops frames from its first round).
  bool link_cut(std::size_t round, topology::NodeId u,
                topology::NodeId v) const;

  /// Components of the effective alive graph in `round` (1 when not
  /// tracked).
  std::size_t component_count(std::size_t round) const;

  /// Fraction of alive members in the largest component (1.0 when not
  /// tracked or nobody is alive).
  double largest_component_fraction(std::size_t round) const;

  /// Monotone partition epoch: incremented every round the effective
  /// labeling changes. 0 until the first change.
  std::size_t partition_epoch(std::size_t round) const;

  /// The labeling change surfaced exactly at `round` (empty() when the
  /// structure did not change that round).
  const PartitionDelta& partition_delta(std::size_t round) const;

  /// Per-node component labels for `round` (empty when not tracked).
  const std::vector<std::size_t>& component_labels(std::size_t round) const;

  /// True when u and v are alive members of the same effective
  /// component in `round`. Always true when partitions are not tracked.
  bool same_component(std::size_t round, topology::NodeId u,
                      topology::NodeId v) const;

  /// Stateless corruption draw for one transmission attempt. Each
  /// retransmission (`attempt` + 1) re-rolls independently.
  bool frame_corrupted(std::size_t round, topology::NodeId from,
                       topology::NodeId to, std::size_t attempt) const;

  /// Burst-down links in `round` (endpoint crashes not counted).
  std::size_t down_link_count(std::size_t round) const;
  /// Crashed nodes in `round`.
  std::size_t down_node_count(std::size_t round) const;

  /// Canonical unordered-pair key for a link, (max << 32) | min.
  static std::uint64_t link_key(topology::NodeId u,
                                topology::NodeId v) noexcept;

  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  struct RoundState {
    std::unordered_set<std::uint64_t> burst_down;
    /// Edges cut by active partition events (frame-dropping, immediate).
    std::unordered_set<std::uint64_t> cut;
    /// Edges out of the effective graph: down (cut or burst) for more
    /// than partition_confirm_rounds consecutive rounds.
    std::unordered_set<std::uint64_t> sustained_down;
    std::vector<bool> node_down;
    std::vector<bool> confirmed;
    std::vector<bool> member;
    ChurnDelta delta;
    std::size_t down_nodes = 0;
    std::size_t alive_members = 0;
    std::size_t epoch = 0;
    /// Component structure of the effective graph (empty labels when
    /// partitions are not tracked).
    std::vector<std::size_t> component;
    std::size_t component_count = 1;
    double largest_component_frac = 1.0;
    std::size_t partition_epoch = 0;
    PartitionDelta pdelta;
  };

  const RoundState& state(std::size_t round) const;
  void materialize_next();
  void materialize_membership(std::size_t round, ChurnDelta& delta);
  void materialize_partitions(std::size_t round, RoundState& state);
  void materialize_components(std::size_t round, RoundState& state);
  void join_node(topology::NodeId node, ChurnDelta& delta);
  void leave_node(topology::NodeId node, ChurnDelta& delta);
  bool scheduled_down(topology::NodeId node, std::size_t round) const;

  FaultPlan plan_;
  common::Rng link_rng_;
  common::Rng node_rng_;
  common::Rng member_rng_;
  common::Rng partition_rng_;
  std::uint64_t corrupt_seed_ = 0;

  /// The input graph plus attachment edges grown by joins.
  topology::Graph dynamic_graph_;

  // Rolling chain state, advanced one round at a time.
  std::vector<bool> link_chain_down_;    // by edges() index
  std::vector<bool> random_node_down_;   // random-churn component
  std::vector<std::size_t> down_streak_;
  std::vector<bool> confirmed_;
  std::vector<bool> member_;             // current membership
  std::vector<bool> initial_member_;
  std::vector<bool> latent_pending_;     // latent, never joined
  std::vector<bool> departed_;           // left, eligible for rejoin
  std::size_t epoch_ = 0;

  // Partition chain state.
  std::vector<std::size_t> edge_down_streak_;  // by edges() index
  std::unordered_set<std::uint64_t> random_cut_;  // active random partition
  std::size_t random_cut_until_ = 0;  // first round the random cut heals
  std::vector<std::size_t> prev_component_;  // last round's labeling
  std::size_t partition_epoch_ = 0;

  std::vector<RoundState> rounds_;  // rounds_[r - 1] is round r
};

}  // namespace snap::net
