// Communication-cost accounting (paper §II-B).
//
// "Communication cost is defined as the total traffic amount carried by
// the network. If a flow traverses h hops of physical links, the
// communication cost incurred by this flow would be h times the flow
// size." Peer exchanges between topological neighbors are 1 hop by
// construction; parameter-server flows are charged along the BFS
// least-hop route. The tracker also keeps raw socket bytes (hops
// ignored), which is the quantity the testbed experiment (Fig. 4)
// reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/graph.hpp"

namespace snap::net {

/// Hop counts over a topology, resolved lazily per query.
///
/// The eager all-pairs table this class used to precompute is O(n²)
/// memory and O(n·(n+|E|)) time — the single worst scaling term in the
/// whole pipeline at 10⁴⁺ nodes, for a quantity most runs barely
/// query: peer exchanges are 1 hop by construction (answered from the
/// adjacency), and parameter-server flows all touch the same hub (one
/// cached BFS). So hops() answers trivial pairs inline and BFS-fills
/// one source row at a time, caching it for reuse. The graph is held
/// by value — callers routinely construct trackers from temporaries.
///
/// Not thread-safe: the row cache mutates under const hops(). Only
/// record_flow calls it, and only from serial sections; no parallel
/// phase does (the fabrics' parallel pull path charges one-hop frames
/// through CostTracker::record_sent / record_received, which never
/// route).
class HopMatrix {
 public:
  /// Requires a connected graph (every flow must be routable).
  explicit HopMatrix(const topology::Graph& graph);

  /// With require_connected == false, tolerates disconnected graphs
  /// (e.g. latent elastic-membership joiners that are isolated until
  /// their join attaches them): unreachable pairs keep a sentinel in
  /// the lazy rows and hops() rejects querying them. Every *actual*
  /// flow still demands a route.
  HopMatrix(const topology::Graph& graph, bool require_connected);

  std::size_t node_count() const noexcept { return graph_.node_count(); }

  /// Least-hop distance between u and v (0 when u == v). Checked
  /// precondition: v must be reachable from u.
  std::size_t hops(topology::NodeId u, topology::NodeId v) const;

 private:
  static constexpr std::size_t kUnreachable =
      static_cast<std::size_t>(-1);

  /// BFS distances from `source`, computed on first use and cached.
  const std::vector<std::size_t>& row_from(topology::NodeId source) const;

  topology::Graph graph_;
  /// Per-source distance rows; an empty row means "not yet computed".
  mutable std::vector<std::vector<std::size_t>> rows_;
};

/// One ended iteration's traffic, as end_iteration() reports it.
struct IterationTraffic {
  std::uint64_t bytes = 0;  ///< raw bytes (hop count ignored)
  std::uint64_t cost = 0;   ///< hop-weighted cost: Σ flow_bytes × hops
  /// Largest per-node inbound byte count — the quantity that saturates a
  /// NIC under incast (paper §I: "when an edge server is selected as a
  /// parameter server ... the incast problem may occur").
  std::uint64_t max_inbound = 0;
  std::uint64_t max_outbound = 0;  ///< largest per-node outbound count
};

/// Accumulates the bytes and hop-weighted cost of every recorded flow.
class CostTracker {
 public:
  explicit CostTracker(HopMatrix hop_matrix)
      : hops_(std::move(hop_matrix)),
        iter_inbound_(hops_.node_count(), 0),
        iter_outbound_(hops_.node_count(), 0) {}

  /// Records one flow of `bytes` from u to v. Flows between co-located
  /// endpoints (u == v) carry no network cost.
  void record_flow(topology::NodeId u, topology::NodeId v,
                   std::size_t bytes);

  /// Bulk charging: record_flow over a set of flows between distinct
  /// endpoints, split by endpoint. record_sent adds one sender's tally
  /// — `bytes` raw, `cost` hop-weighted — to the totals and to u's
  /// outbound slot; record_received adds `bytes` to v's inbound slot.
  /// Every sum is a uint64 sum, so any call order gives the same
  /// result as replaying the flows one by one. record_received writes
  /// only v's slot: parallel phases may call it for distinct v.
  void record_sent(topology::NodeId u, std::uint64_t bytes,
                   std::uint64_t cost);
  void record_received(topology::NodeId v, std::uint64_t bytes);

  /// Ends the current iteration: returns its traffic and resets the
  /// per-iteration counters.
  IterationTraffic end_iteration();

  /// Raw bytes written since construction (hop count ignored).
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

  /// Hop-weighted cost: Σ flow_bytes × hops.
  std::uint64_t total_cost() const noexcept { return total_cost_; }

  const HopMatrix& hop_matrix() const noexcept { return hops_; }

  /// Replaces the routing table — used at membership epochs, when joins
  /// grow the topology and new flows need routes. Accumulated totals
  /// are untouched.
  void set_hop_matrix(HopMatrix hop_matrix);

  /// Checkpoint restore: re-seeds the running totals on a fresh tracker
  /// so post-resume rounds accumulate on top of the pre-crash traffic
  /// (the pre-crash rounds' traffic is already frozen in the
  /// checkpoint's IterationStats prefix).
  void restore_totals(std::uint64_t total_bytes,
                      std::uint64_t total_cost) noexcept {
    total_bytes_ = total_bytes;
    total_cost_ = total_cost;
  }

 private:
  HopMatrix hops_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_cost_ = 0;
  std::uint64_t iter_bytes_ = 0;
  std::uint64_t iter_cost_ = 0;
  std::vector<std::uint64_t> iter_inbound_;   // per node, current iteration
  std::vector<std::uint64_t> iter_outbound_;  // per node, current iteration
};

}  // namespace snap::net
