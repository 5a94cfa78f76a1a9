#include "oracle/gossip_draw.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/check.hpp"

namespace snap::oracle {

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t priority(std::uint64_t seed, std::size_t epoch,
                       std::size_t round, topology::NodeId a,
                       topology::NodeId b) noexcept {
  std::uint64_t x = mix64(seed ^ 0xA0761D6478BD642FULL);
  x = mix64(x ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(round)));
  x = mix64(x ^ (0xE7037ED1A0B428DBULL * static_cast<std::uint64_t>(epoch)));
  x = mix64(x ^ ((static_cast<std::uint64_t>(a) << 32) |
                 static_cast<std::uint64_t>(b)));
  return x;
}

bool is_alive(const std::vector<bool>& alive, topology::NodeId i) {
  return alive.empty() || alive[i];
}

}  // namespace

std::vector<runtime::ActivatedLink> sorted_gossip_activated_links(
    const runtime::GossipConfig& config, const topology::Graph& graph,
    std::size_t epoch, std::size_t round, const std::vector<bool>& alive) {
  SNAP_REQUIRE_MSG(alive.empty() || alive.size() == graph.node_count(),
                   "alive mask size must match the graph");
  const std::uint64_t seed = config.seed;
  std::vector<runtime::ActivatedLink> out;

  if (config.mode == runtime::GossipMode::kMatching) {
    struct Ranked {
      std::uint64_t rank;
      topology::NodeId u;
      topology::NodeId v;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(graph.edge_count());
    for (const auto& [u, v] : graph.edges()) {
      if (!is_alive(alive, u) || !is_alive(alive, v)) continue;
      ranked.push_back({priority(seed, epoch, round, u, v), u, v});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) {
                if (a.rank != b.rank) return a.rank < b.rank;
                if (a.u != b.u) return a.u < b.u;
                return a.v < b.v;
              });
    std::vector<bool> matched(graph.node_count(), false);
    for (const Ranked& edge : ranked) {
      if (matched[edge.u] || matched[edge.v]) continue;
      matched[edge.u] = true;
      matched[edge.v] = true;
      out.push_back({edge.u, edge.v});
    }
  } else {
    const std::size_t fanout = std::max<std::size_t>(config.fanout, 1);
    std::vector<std::pair<std::uint64_t, topology::NodeId>> ranks;
    for (topology::NodeId i = 0; i < graph.node_count(); ++i) {
      if (!is_alive(alive, i)) continue;
      ranks.clear();
      for (const auto j : graph.neighbors(i)) {
        if (!is_alive(alive, j)) continue;
        ranks.push_back({priority(seed, epoch, round, i, j), j});
      }
      const std::size_t picks = std::min(fanout, ranks.size());
      std::partial_sort(ranks.begin(), ranks.begin() + picks, ranks.end());
      for (std::size_t k = 0; k < picks; ++k) {
        const topology::NodeId j = ranks[k].second;
        out.push_back({std::min(i, j), std::max(i, j)});
      }
    }
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace snap::oracle
