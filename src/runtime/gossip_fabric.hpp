// Randomized-gossip execution: shared clock, sparse activated links.
//
// GossipFabric keeps SyncFabric's phase interleaving and determinism
// discipline wholesale — rounds tick on a shared clock, parallel phases
// write only node-owned slots, delivery (pull on the sim transport,
// serial post otherwise) and the phase profile are SyncFabric's — and
// changes exactly one thing: each round a seeded scheduler activates a
// sparse subset of the alive edges (random maximal matching, or a small
// per-node push-pull fan-out) and announces it through the
// `on_activation` hook before the round's phases run. Schemes that
// understand the hook (SNAP/EXTRA trainers) restrict their sends to the
// activated links and rebuild their mixing rows on the activated
// subgraph; schemes that leave the hook unset (the parameter server)
// get bitwise-identical sync-fabric behavior — the degenerate path the
// topology makes natural, since a star's "matching" would serialize the
// star anyway.
//
// Determinism: the activation set is a pure function of (seed, graph,
// membership epoch, round) — see runtime/gossip.hpp. The draw happens
// in the serial round preamble, after FaultInjector churn is surfaced
// (so the schedule sees the post-epoch graph and confirmed-crash mask)
// and before begin_round. Nothing about the draw depends on thread
// interleaving, so the whole run replays bitwise for any `threads`
// value, across reruns, and under an active FaultPlan.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/gossip.hpp"
#include "runtime/sync_fabric.hpp"

namespace snap::runtime {

template <typename Payload>
class GossipFabric final : public SyncFabric<Payload> {
 public:
  GossipFabric(const FabricConfig& config, const GossipConfig& gossip,
               std::unique_ptr<net::Transport<Payload>> transport = nullptr)
      : SyncFabric<Payload>(config, std::move(transport)),
        scheduler_(gossip) {}

 protected:
  void prepare_round(std::size_t round,
                     RoundHooks<Payload>& hooks) override {
    if (!hooks.on_activation) return;  // degenerate path: plain sync
    const FabricConfig& config = this->fabric_config();
    net::FaultInjector* faults = config.faults;
    const topology::Graph* graph =
        faults != nullptr ? &faults->current_graph() : config.graph;
    SNAP_REQUIRE_MSG(graph != nullptr,
                     "gossip fabric requires a topology graph");
    const std::size_t epoch =
        faults != nullptr ? faults->membership_epoch(round) : 0;
    if (faults != nullptr) {
      faults->alive_mask(round, alive_);
    } else {
      alive_.assign(graph->node_count(), true);
    }
    const std::span<const ActivatedLink> links =
        scheduler_.draw(*graph, epoch, round, alive_);
    this->round_links_activated_ = links.size();
    hooks.on_activation(round, links);
  }

 private:
  GossipScheduler scheduler_;
  std::vector<bool> alive_;
};

}  // namespace snap::runtime
