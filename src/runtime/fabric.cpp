#include "runtime/fabric.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace snap::runtime {

std::string_view fabric_name(FabricKind kind) noexcept {
  switch (kind) {
    case FabricKind::kSync:
      return "sync";
    case FabricKind::kAsync:
      return "async";
    case FabricKind::kGossip:
      return "gossip";
  }
  return "?";
}

std::vector<double> linear_compute_spread(std::size_t n, double base_s,
                                          double spread) {
  SNAP_REQUIRE(base_s > 0.0);
  SNAP_REQUIRE(spread >= 0.0);
  std::vector<double> out(n, base_s);
  if (n < 2) return out;
  for (std::size_t i = 0; i < n; ++i) {
    const double position =
        static_cast<double>(i) / static_cast<double>(n - 1);
    out[i] = base_s * (1.0 + spread * position);
  }
  return out;
}

core::IterationStats shared_round_stats(const RoundEval& eval,
                                        net::CostTracker* cost,
                                        const net::FaultInjector* faults,
                                        std::size_t round,
                                        std::size_t node_count) {
  core::IterationStats stats;
  stats.train_loss = eval.train_loss;
  stats.consensus_residual = eval.consensus_residual;
  if (eval.evaluated) {
    stats.test_accuracy = eval.test_accuracy;
    stats.evaluated = true;
  }
  if (cost != nullptr) {
    const net::IterationTraffic traffic = cost->end_iteration();
    stats.bytes = traffic.bytes;
    stats.cost = traffic.cost;
    stats.max_node_inbound_bytes = traffic.max_inbound;
    stats.max_node_outbound_bytes = traffic.max_outbound;
  }
  if (faults == nullptr) {
    stats.alive_nodes = node_count;
    return stats;
  }
  stats.links_down = faults->down_link_count(round);
  stats.nodes_down = faults->down_node_count(round);
  stats.alive_nodes = faults->alive_member_count(round);
  stats.nodes_joined = faults->churn_delta(round).joined.size();
  stats.components = faults->component_count(round);
  stats.largest_component_frac = faults->largest_component_fraction(round);
  stats.partition_epoch = faults->partition_epoch(round);
  return stats;
}

FabricConfig fabric_config(const RunConfig& run, const core::EvalConfig& eval,
                           const topology::Graph& graph,
                           net::FaultInjector* injector,
                           double round_compute_flops) {
  FabricConfig config;
  config.threads = run.threads;
  config.graph = &graph;
  config.convergence = run.convergence;
  config.eval = eval;
  config.timing = run.timing;
  config.round_compute_flops = round_compute_flops;
  config.faults = injector;
  config.recovery = run.recovery;
  config.checkpoint = run.checkpoint;
  return config;
}

bool measures_accuracy(const FabricConfig& config, std::size_t round) {
  return round % std::max<std::size_t>(config.eval.every, 1) == 0 ||
         round == config.convergence.max_iterations;
}

void refresh_routes(std::optional<net::CostTracker>& cost,
                    const net::FaultInjector& faults) {
  if (!cost) return;
  cost->set_hop_matrix(
      net::HopMatrix(faults.current_graph(), /*require_connected=*/false));
}

}  // namespace snap::runtime
