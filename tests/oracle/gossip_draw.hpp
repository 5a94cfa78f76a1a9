// Test-only reference: the gossip activation draw as a comparison sort
// of the ranked alive edges followed by the greedy matching, and a
// final sort of the pairs. runtime::GossipScheduler replaces both sorts
// with linear-time passes; gossip_draw_property_test pins it against
// this function over random and grown graphs.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/gossip.hpp"
#include "topology/graph.hpp"

namespace snap::oracle {

/// runtime::gossip_activated_links, computed by sorting.
std::vector<runtime::ActivatedLink> sorted_gossip_activated_links(
    const runtime::GossipConfig& config, const topology::Graph& graph,
    std::size_t epoch, std::size_t round, const std::vector<bool>& alive);

}  // namespace snap::oracle
