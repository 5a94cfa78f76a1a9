#include "runtime/gossip.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"

namespace snap::runtime {

namespace {

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// The round-constant head of the stateless per-(seed, epoch, round,
/// a, b) priority: one draw computes it once.
std::uint64_t round_prefix(std::uint64_t seed, std::size_t epoch,
                           std::size_t round) noexcept {
  std::uint64_t x = mix64(seed ^ 0xA0761D6478BD642FULL);
  x = mix64(x ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(round)));
  return mix64(x ^ (0xE7037ED1A0B428DBULL * static_cast<std::uint64_t>(epoch)));
}

/// The priority of (a, b) under a round prefix. The pair is directed
/// for push-pull ranks and normalized by callers for edges.
std::uint64_t priority(std::uint64_t prefix, topology::NodeId a,
                       topology::NodeId b) noexcept {
  return mix64(prefix ^ ((static_cast<std::uint64_t>(a) << 32) |
                         static_cast<std::uint64_t>(b)));
}

constexpr std::uint32_t kNoPartner = std::numeric_limits<std::uint32_t>::max();

bool ranked_before(const RankedEdge& a, const RankedEdge& b) noexcept {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

bool is_alive(const std::vector<bool>& alive, topology::NodeId i) {
  return alive.empty() || alive[i];
}

}  // namespace

std::string_view gossip_mode_name(GossipMode mode) noexcept {
  switch (mode) {
    case GossipMode::kMatching:
      return "matching";
    case GossipMode::kPushPull:
      return "pushpull";
  }
  return "?";
}

std::vector<ActivatedLink> gossip_activated_links(
    const GossipConfig& config, const topology::Graph& graph,
    std::size_t epoch, std::size_t round, const std::vector<bool>& alive) {
  GossipScheduler scheduler(config);
  const std::span<const ActivatedLink> links =
      scheduler.draw(graph, epoch, round, alive);
  return {links.begin(), links.end()};
}

void order_by_rank(std::vector<RankedEdge>& edges,
                   std::vector<RankedEdge>& scratch,
                   std::vector<std::uint32_t>& bucket) {
  const std::size_t m = edges.size();
  if (m < 2) return;
  // 2^bits buckets, between m and 2m of them, keyed by the top bits.
  const int bits = std::bit_width(m);
  const int shift = 64 - bits;
  bucket.assign((std::size_t{1} << bits) + 1, 0);
  for (const RankedEdge& e : edges) ++bucket[(e.rank >> shift) + 1];
  for (std::size_t b = 1; b < bucket.size(); ++b) bucket[b] += bucket[b - 1];
  scratch.resize(m);
  for (const RankedEdge& e : edges) scratch[bucket[e.rank >> shift]++] = e;
  // Every edge of an earlier bucket ranks strictly lower, so the
  // insertion sort never moves an edge out of its bucket.
  for (std::size_t k = 1; k < m; ++k) {
    const RankedEdge e = scratch[k];
    std::size_t at = k;
    for (; at > 0 && ranked_before(e, scratch[at - 1]); --at) {
      scratch[at] = scratch[at - 1];
    }
    scratch[at] = e;
  }
  edges.swap(scratch);
}

std::span<const ActivatedLink> GossipScheduler::draw(
    const topology::Graph& graph, std::size_t epoch, std::size_t round,
    const std::vector<bool>& alive) {
  SNAP_REQUIRE_MSG(alive.empty() || alive.size() == graph.node_count(),
                   "alive mask size must match the graph");
  SNAP_REQUIRE_MSG(graph.node_count() < kNoPartner,
                   "the gossip draw packs node ids into 32 bits");
  const std::uint64_t prefix = round_prefix(config_.seed, epoch, round);
  links_.clear();
  if (config_.mode == GossipMode::kMatching) {
    draw_matching(graph, prefix, alive);
  } else {
    draw_push_pull(graph, prefix, alive);
  }
  return links_;
}

void GossipScheduler::draw_matching(const topology::Graph& graph,
                                    std::uint64_t prefix,
                                    const std::vector<bool>& alive) {
  // Random maximal matching: rank the alive edges by a stateless hash
  // and take greedily — each node ends up in at most one pair. Ties
  // break on the (u, v) ids so the order is total.
  ranked_.clear();
  for (const auto& [u, v] : graph.edges()) {
    if (!is_alive(alive, u) || !is_alive(alive, v)) continue;
    ranked_.push_back({priority(prefix, u, v), static_cast<std::uint32_t>(u),
                       static_cast<std::uint32_t>(v)});
  }
  order_by_rank(ranked_, scratch_, bucket_);
  // Branch-free: whether an edge is taken is a coin flip to the branch
  // predictor. Both ends are idle exactly when their partners AND to
  // kNoPartner.
  partner_.assign(graph.node_count(), kNoPartner);
  for (const RankedEdge& edge : ranked_) {
    const std::uint32_t pu = partner_[edge.u];
    const std::uint32_t pv = partner_[edge.v];
    const bool take = (pu & pv) == kNoPartner;
    partner_[edge.u] = take ? edge.v : pu;
    partner_[edge.v] = take ? edge.u : pv;
  }
  // Each pair once, from its lower end: ascending (u, v) with no sort.
  for (topology::NodeId u = 0; u < partner_.size(); ++u) {
    if (partner_[u] != kNoPartner && partner_[u] > u) {
      links_.push_back({u, partner_[u]});
    }
  }
}

void GossipScheduler::draw_push_pull(const topology::Graph& graph,
                                     std::uint64_t prefix,
                                     const std::vector<bool>& alive) {
  // Push-pull: node i ranks its alive neighbors by a directed hash and
  // picks the `fanout` smallest; the union of all picks is activated
  // (an edge both endpoints picked is one exchange).
  const std::size_t fanout = std::max<std::size_t>(config_.fanout, 1);
  for (topology::NodeId i = 0; i < graph.node_count(); ++i) {
    if (!is_alive(alive, i)) continue;
    ranks_.clear();
    for (const auto j : graph.neighbors(i)) {
      if (!is_alive(alive, j)) continue;
      ranks_.push_back({priority(prefix, i, j), j});
    }
    const std::size_t picks = std::min(fanout, ranks_.size());
    std::partial_sort(ranks_.begin(), ranks_.begin() + picks, ranks_.end());
    for (std::size_t k = 0; k < picks; ++k) {
      const topology::NodeId j = ranks_[k].second;
      links_.push_back({std::min(i, j), std::max(i, j)});
    }
  }
  std::sort(links_.begin(), links_.end());
  links_.erase(std::unique(links_.begin(), links_.end()), links_.end());
}

}  // namespace snap::runtime
