#include "consensus/topology_sparsifier.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "consensus/mixing_spectrum.hpp"

namespace snap::consensus {

namespace {

constexpr std::size_t kExcluded = topology::ComponentMap::kExcluded;

/// Floor on the per-step SLEM degradation: a removal can *improve* the
/// SLEM (e.g. breaking a near-periodic structure), and the score
/// price / degradation must stay finite and favor such free removals.
constexpr double kMinDegradation = 1e-12;

/// Everything the greedy loop needs about the effective subgraph,
/// derived once. All state is a pure function of (graph, alive, labels,
/// config) — no randomness anywhere in this file.
struct Workspace {
  const topology::Graph& graph;
  std::vector<std::uint8_t> effective_node;
  std::vector<std::size_t> labels;
  std::size_t component_count = 0;
  /// Sorted member list and global→compact index map per component.
  std::vector<std::vector<topology::NodeId>> comp_nodes;
  std::vector<std::size_t> compact_index;
  /// Edge indices (into graph.edges()) per component.
  std::vector<std::vector<std::size_t>> comp_edges;
};

bool is_effective_node(const std::vector<bool>& alive,
                       const std::vector<std::size_t>& labels,
                       topology::NodeId i) {
  return (alive.empty() || alive[i]) &&
         (labels.empty() || labels[i] != kExcluded);
}

Workspace build_workspace(const topology::Graph& graph,
                          const std::vector<bool>& alive,
                          const std::vector<std::size_t>& labels_in) {
  const std::size_t n = graph.node_count();
  SNAP_REQUIRE_MSG(alive.empty() || alive.size() == n,
                   "alive mask size must match the node count");
  SNAP_REQUIRE_MSG(labels_in.empty() || labels_in.size() == n,
                   "component labels must have one entry per node");
  Workspace ws{graph, {}, {}, 0, {}, {}, {}};
  ws.effective_node.assign(n, 0);
  for (topology::NodeId i = 0; i < n; ++i) {
    ws.effective_node[i] = is_effective_node(alive, labels_in, i) ? 1 : 0;
  }
  if (labels_in.empty()) {
    // Derive the component structure from the alive mask: the masked
    // labeling is canonical (ascending lowest-member order), so the
    // schedule stays a pure function of (graph, alive).
    ws.labels =
        topology::connected_components(graph, ws.effective_node).label;
  } else {
    ws.labels = labels_in;
    for (topology::NodeId i = 0; i < n; ++i) {
      if (ws.effective_node[i] == 0) ws.labels[i] = kExcluded;
    }
  }
  for (topology::NodeId i = 0; i < n; ++i) {
    if (ws.effective_node[i] != 0 && ws.labels[i] != kExcluded) {
      ws.component_count = std::max(ws.component_count, ws.labels[i] + 1);
    }
  }
  ws.comp_nodes.resize(ws.component_count);
  ws.compact_index.assign(n, 0);
  for (topology::NodeId i = 0; i < n; ++i) {
    if (ws.effective_node[i] == 0 || ws.labels[i] == kExcluded) continue;
    ws.compact_index[i] = ws.comp_nodes[ws.labels[i]].size();
    ws.comp_nodes[ws.labels[i]].push_back(i);
  }
  ws.comp_edges.resize(ws.component_count);
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    if (ws.effective_node[u] == 0 || ws.effective_node[v] == 0) continue;
    if (ws.labels[u] == kExcluded || ws.labels[u] != ws.labels[v]) continue;
    ws.comp_edges[ws.labels[u]].push_back(e);
  }
  return ws;
}

/// True when component `c` stays connected over its kept edges with
/// `skip` (an index into graph.edges(), or npos) additionally removed.
bool stays_connected(const Workspace& ws,
                     const std::vector<std::uint8_t>& kept, std::size_t c,
                     std::size_t skip) {
  const std::vector<topology::NodeId>& nodes = ws.comp_nodes[c];
  const std::size_t sz = nodes.size();
  if (sz <= 1) return true;
  std::vector<std::vector<std::size_t>> adjacency(sz);
  for (const std::size_t e : ws.comp_edges[c]) {
    if (e == skip || kept[e] == 0) continue;
    const auto [u, v] = ws.graph.edges()[e];
    adjacency[ws.compact_index[u]].push_back(ws.compact_index[v]);
    adjacency[ws.compact_index[v]].push_back(ws.compact_index[u]);
  }
  std::vector<std::uint8_t> seen(sz, 0);
  std::vector<std::size_t> frontier{0};
  seen[0] = 1;
  std::size_t reached = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    for (const std::size_t b : adjacency[frontier[head]]) {
      if (seen[b] == 0) {
        seen[b] = 1;
        frontier.push_back(b);
        ++reached;
      }
    }
  }
  return reached == sz;
}

/// SLEM of component `c`'s Metropolis matrix over its kept edges, with
/// `skip` additionally removed. Routes through mixing_extremes — dense
/// Jacobi below kDenseSpectralCutoff, deflated Lanczos above — exactly
/// like every other spectral query. Callers guarantee connectivity
/// (the Lanczos leg requires it).
double component_slem(const Workspace& ws,
                      const std::vector<std::uint8_t>& kept, std::size_t c,
                      std::size_t skip) {
  const std::vector<topology::NodeId>& nodes = ws.comp_nodes[c];
  if (nodes.size() < 2) return 0.0;
  topology::Graph sub(nodes.size());
  for (const std::size_t e : ws.comp_edges[c]) {
    if (e == skip || kept[e] == 0) continue;
    const auto [u, v] = ws.graph.edges()[e];
    sub.add_edge(ws.compact_index[u], ws.compact_index[v]);
  }
  return mixing_extremes(SparseWeightMatrix::metropolis_on_survivors(sub))
      .slem;
}

/// Detour distance of edge `e` = {u, v}: BFS hops from u to v over the
/// effective subgraph with e itself removed; unreachable (a bridge —
/// the connectivity guard never prunes it anyway) prices at n.
double detour_price(const Workspace& ws, std::size_t e) {
  const auto [src, dst] = ws.graph.edges()[e];
  const std::size_t n = ws.graph.node_count();
  std::vector<std::size_t> dist(n, kExcluded);
  std::vector<topology::NodeId> frontier{src};
  dist[src] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const topology::NodeId u = frontier[head];
    if (u == dst) break;
    for (const topology::NodeId v : ws.graph.neighbors(u)) {
      if (ws.effective_node[v] == 0 || ws.labels[v] != ws.labels[u]) {
        continue;
      }
      if ((u == src && v == dst) || (u == dst && v == src)) continue;
      if (dist[v] != kExcluded) continue;
      dist[v] = dist[u] + 1;
      frontier.push_back(v);
    }
  }
  return dist[dst] == kExcluded ? static_cast<double>(n)
                                : static_cast<double>(dist[dst]);
}

std::vector<double> effective_prices(const Workspace& ws,
                                     const SparsifierConfig& config) {
  const auto& edges = ws.graph.edges();
  std::vector<double> prices(edges.size(), 0.0);
  if (!config.link_prices.empty()) {
    SNAP_REQUIRE_MSG(config.link_prices.size() == edges.size(),
                     "link_prices has " << config.link_prices.size()
                                        << " entries for "
                                        << edges.size() << " edges");
    prices = config.link_prices;
    return prices;
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    if (ws.effective_node[u] == 0 || ws.effective_node[v] == 0 ||
        ws.labels[u] == kExcluded || ws.labels[u] != ws.labels[v]) {
      continue;  // inert edge: never a candidate, price irrelevant
    }
    prices[e] = config.cost_model == LinkCostModel::kUniform
                    ? 1.0
                    : detour_price(ws, e);
  }
  return prices;
}

SparsifierResult sparsify_impl(const topology::Graph& graph,
                               const std::vector<bool>& alive,
                               const std::vector<std::size_t>& labels_in,
                               const SparsifierConfig& config) {
  SNAP_REQUIRE_MSG(config.slem_bound > 0.0 && config.slem_bound <= 1.0,
                   "slem_bound must lie in (0, 1]; got " << config.slem_bound);
  SNAP_REQUIRE_MSG(config.cost_budget >= 0.0 && config.cost_budget <= 1.0,
                   "cost_budget must lie in [0, 1]; got "
                       << config.cost_budget);
  const Workspace ws = build_workspace(graph, alive, labels_in);
  const auto& edges = graph.edges();

  SparsifierResult result;
  result.edge_kept.assign(edges.size(), 1);

  const std::vector<double> prices = effective_prices(ws, config);
  std::vector<std::uint8_t> candidate(edges.size(), 0);
  double kept_cost = 0.0;
  std::size_t effective_edges = 0;
  for (std::size_t c = 0; c < ws.component_count; ++c) {
    for (const std::size_t e : ws.comp_edges[c]) {
      candidate[e] = 1;
      kept_cost += prices[e];
      ++effective_edges;
    }
  }
  result.cost_before = kept_cost;

  std::vector<double> comp_slem(ws.component_count, 0.0);
  for (std::size_t c = 0; c < ws.component_count; ++c) {
    comp_slem[c] = component_slem(ws, result.edge_kept, c, kExcluded);
  }
  const auto max_slem = [&] {
    double worst = 0.0;
    for (const double s : comp_slem) worst = std::max(worst, s);
    return worst;
  };
  result.slem_before = max_slem();

  // "Degrade by at most slem_slack" tightens an absolute bound that the
  // starting topology may already sit above; without slack the bound is
  // absolute. The comparison below is exact — the property test asserts
  // the post-prune SLEM never exceeds this number.
  const double bound = config.slem_slack > 0.0
                           ? std::min(config.slem_bound,
                                      result.slem_before + config.slem_slack)
                           : config.slem_bound;

  while (true) {
    if (config.cost_budget > 0.0 &&
        kept_cost <= config.cost_budget * result.cost_before) {
      break;  // saved enough; keep the remaining mixing quality
    }
    std::size_t best = kExcluded;
    double best_score = 0.0;
    double best_slem = 0.0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (candidate[e] == 0 || result.edge_kept[e] == 0) continue;
      const std::size_t c = ws.labels[edges[e].first];
      if (!stays_connected(ws, result.edge_kept, c, e)) continue;
      const double slem = component_slem(ws, result.edge_kept, c, e);
      if (slem > bound) continue;
      const double degradation =
          std::max(slem - comp_slem[c], kMinDegradation);
      const double score = prices[e] / degradation;
      // Strict > keeps the tiebreak on the lowest edge index, so the
      // schedule is independent of evaluation order.
      if (best == kExcluded || score > best_score) {
        best = e;
        best_score = score;
        best_slem = slem;
      }
    }
    if (best == kExcluded) break;  // every survivor is load-bearing
    result.edge_kept[best] = 0;
    kept_cost -= prices[best];
    --effective_edges;
    comp_slem[ws.labels[edges[best].first]] = best_slem;
    result.steps.push_back(PruneStep{edges[best].first, edges[best].second,
                                     prices[best], max_slem(), kept_cost});
  }

  result.slem_after = result.steps.empty() ? result.slem_before
                                           : result.steps.back().slem_after;
  result.cost_after = kept_cost;
  result.links_pruned = result.steps.size();
  result.effective_edges = effective_edges;
  // Identity rows for dead and excluded nodes; pruned links keep their
  // structural-zero slots, so rows stay aligned with the full graph.
  result.w = reproject_weight_matrix_sparse(graph, alive, ws.labels,
                                            config.reweight, config.optimizer,
                                            result.edge_kept);
  return result;
}

}  // namespace

std::vector<double> link_prices(const topology::Graph& graph,
                                LinkCostModel model) {
  const Workspace ws = build_workspace(graph, {}, {});
  SparsifierConfig config;
  config.cost_model = model;
  return effective_prices(ws, config);
}

SparsifierResult sparsify_topology(const topology::Graph& graph,
                                   const std::vector<bool>& alive,
                                   const SparsifierConfig& config) {
  return sparsify_impl(graph, alive, {}, config);
}

SparsifierResult sparsify_topology(const topology::Graph& graph,
                                   const std::vector<bool>& alive,
                                   const std::vector<std::size_t>& labels,
                                   const SparsifierConfig& config) {
  return sparsify_impl(graph, alive, labels, config);
}

}  // namespace snap::consensus
