// Gossip activation scheduling: which links exchange this tick.
//
// The gossip fabric replaces full-neighborhood rounds with randomized
// pairwise mixing (Boyd et al.'s randomized gossip; Neglia et al. show
// sparser per-round schedules can match full-neighborhood convergence
// at a fraction of the traffic). Each tick a seeded scheduler activates
// a sparse subset of the alive edges and only those links carry frames:
//
//   - kMatching: a random maximal matching — every node talks to at
//     most ONE partner per tick, the classic pairwise-gossip schedule.
//   - kPushPull: every alive node picks `fanout` alive neighbors; the
//     union of picks (symmetrized) is activated, so a node may serve
//     several partners in one tick but expected per-node traffic stays
//     O(fanout).
//
// Determinism contract: the activation set for a round is a pure
// function of (seed, graph, membership epoch, round) — no rolling RNG
// state. Every draw is a stateless SplitMix64-style hash (the same
// idiom as FaultInjector::frame_corrupted), so the schedule replays
// bitwise for any `threads` value, under any event interleaving, and
// across reruns, including runs where FaultInjector churn grows or
// shrinks the membership: consumers at the same round observe the same
// epoch, hence the same activation set. Transient link bursts do NOT
// enter the schedule — an activated-but-down link simply loses its
// frame (and the sender's backlog carries the updates to the next
// activation), exactly like the other fabrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "topology/graph.hpp"

namespace snap::runtime {

/// How the scheduler picks the activated link subset each tick.
enum class GossipMode {
  kMatching,  ///< random maximal matching: ≤ 1 partner per node
  kPushPull,  ///< every node picks `fanout` neighbors; union activated
};

std::string_view gossip_mode_name(GossipMode mode) noexcept;

/// Knobs for the gossip fabric's activation scheduler.
struct GossipConfig {
  GossipMode mode = GossipMode::kMatching;
  /// kPushPull: neighbors each node picks per tick (clamped to the
  /// node's alive degree). Ignored by kMatching.
  std::size_t fanout = 1;
  /// Seeds the activation hash. 0 = derive from the run's root seed
  /// (trainers substitute their own seed so one printed seed reproduces
  /// the whole run, schedule included).
  std::uint64_t seed = 0;
  /// Synchronized EXTRA-recursion restart every this many rounds
  /// (0 = never). EXTRA's memory recursion is only neutrally stable in
  /// the modes a round's activation leaves untouched (an idle node runs
  /// x⁺ = 2x − x⁻, whose double root at 1 is harmless ONLY while the
  /// static-W telescoped invariant holds); switching the activation
  /// between rounds excites those modes, and the products of the
  /// per-round companion matrices compound the error — empirically a
  /// slow exponential that surfaces after several hundred ticks.
  /// Restarting the recursion on a fixed round schedule (§IV-C licenses
  /// restarts from arbitrary iterates) clears the accumulated memory
  /// before it can compound. Pure function of the round number, so the
  /// determinism contract is untouched. 16 holds the worst observed
  /// growth (hinge losses, small step sizes) flat with no measurable
  /// loss penalty; 64 already visibly drifts on long horizons.
  std::size_t restart_every = 16;
};

/// An activated undirected link, normalized u < v.
using ActivatedLink = std::pair<topology::NodeId, topology::NodeId>;

/// The links activated for `round`, sorted ascending by (u, v). A pure
/// function of its arguments (see the header comment): callers on any
/// fabric, thread count, or replay observe the identical set.
///
/// `alive` masks nodes that may participate (empty = all alive); edges
/// with a masked endpoint are never activated. `epoch` is the
/// membership epoch (0 without elastic membership) — folding it into
/// the hash re-randomizes the schedule when the topology grows, so a
/// joiner's fresh links don't inherit the pre-join activation pattern.
/// One-shot form of GossipScheduler::draw.
std::vector<ActivatedLink> gossip_activated_links(
    const GossipConfig& config, const topology::Graph& graph,
    std::size_t epoch, std::size_t round, const std::vector<bool>& alive);

/// An alive edge and its matching rank (the stateless per-round hash).
struct RankedEdge {
  std::uint64_t rank = 0;
  std::uint32_t u = 0;
  std::uint32_t v = 0;
};

/// Orders `edges` ascending by (rank, u, v) — the order std::sort with
/// that comparison yields — in expected linear time: a stable counting
/// pass on the ranks' top bits, then an insertion sort that only moves
/// an edge within its bucket. The ranks are uniform hashes, so a bucket
/// holds about one edge; equal ranks fall to (u, v). `scratch` and
/// `bucket` are working storage, kept by the caller across calls.
void order_by_rank(std::vector<RankedEdge>& edges,
                   std::vector<RankedEdge>& scratch,
                   std::vector<std::uint32_t>& bucket);

/// The activation draw with its working storage kept across rounds:
/// what the gossip fabric runs every tick. draw() returns exactly
/// gossip_activated_links(config, ...).
///
/// Matching mode takes the alive edges greedily in (rank, u, v) order
/// (order_by_rank), recording each node's partner, and emits the pairs
/// by scanning the partners in id order, which is already the (u, v)
/// order. Push-pull ranks each node's neighbors and sorts the union.
/// Both modes hash with the (seed, round, epoch) prefix computed once
/// per draw.
class GossipScheduler {
 public:
  explicit GossipScheduler(const GossipConfig& config) : config_(config) {}

  /// The links activated for `round`; valid until the next draw.
  std::span<const ActivatedLink> draw(const topology::Graph& graph,
                                      std::size_t epoch, std::size_t round,
                                      const std::vector<bool>& alive);

 private:
  void draw_matching(const topology::Graph& graph, std::uint64_t prefix,
                     const std::vector<bool>& alive);
  void draw_push_pull(const topology::Graph& graph, std::uint64_t prefix,
                      const std::vector<bool>& alive);

  GossipConfig config_;
  std::vector<RankedEdge> ranked_;
  std::vector<RankedEdge> scratch_;
  std::vector<std::uint32_t> bucket_;
  /// Matching mode: each node's partner this tick (all ones = idle).
  std::vector<std::uint32_t> partner_;
  /// Push-pull mode: one node's (rank, neighbor) candidates.
  std::vector<std::pair<std::uint64_t, topology::NodeId>> ranks_;
  std::vector<ActivatedLink> links_;
};

}  // namespace snap::runtime
