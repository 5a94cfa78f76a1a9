// Straggler resilience: what happens when edge links flap.
//
// Wireless backhaul links drop frames; SNAP's answer (paper §IV-D) is
// to just keep going — no barrier, no retry storm. With the default
// reweight policy a missing neighbor is simply dropped from that
// round's average (the paper's "like the dropout process" intuition).
// This example injects increasing per-round link-failure probabilities
// into a 30-server run and reports how convergence and accuracy
// respond. It also demonstrates the observer hook by tracking the
// consensus residual live.
//
// Build & run:  cmake --build build && ./build/examples/straggler_resilience
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "consensus/weight_optimizer.hpp"
#include "core/snap_trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic_credit.hpp"
#include "experiments/report.hpp"
#include "ml/linear_svm.hpp"
#include "topology/generators.hpp"

int main() {
  using namespace snap;

  common::Rng rng(99);
  const topology::Graph graph =
      topology::make_random_connected(30, 4.0, rng);
  const consensus::WeightSelection weights =
      consensus::select_weight_matrix(graph);

  data::SyntheticCreditConfig data_cfg;
  data_cfg.samples = 9'000;
  const data::Dataset all = data::make_synthetic_credit(data_cfg);
  const auto split = data::split_train_test(all, 0.2, 3);
  common::Rng shard_rng = rng.fork("shards");
  const std::vector<data::Dataset> shards =
      data::partition_equal(split.train, graph.node_count(), shard_rng);

  const ml::LinearSvm model{ml::LinearSvmConfig{.feature_dim = 24}};

  experiments::Table table({"link failure / round", "converged",
                            "iterations", "accuracy",
                            "peak consensus residual after iter 50"});
  for (const double failure : {0.0, 0.01, 0.05, 0.10, 0.20}) {
    core::SnapTrainerConfig cfg;
    cfg.alpha = 0.3;
    cfg.ape.initial_budget_fraction = 0.02;
    cfg.convergence.loss_tolerance = 1e-3;
    cfg.convergence.consensus_tolerance = 2e-2;
    cfg.convergence.max_iterations = 600;
    cfg.faults = net::FaultPlan::memoryless_links(failure);

    core::SnapTrainer trainer(graph, weights.w, model,
                              std::vector<data::Dataset>(shards), cfg);
    // Observer hook: watch how far apart the replicas drift while links
    // flap.
    double late_peak_residual = 0.0;
    trainer.set_observer([&](std::size_t iteration,
                             const std::vector<core::SnapNode>& nodes) {
      if (iteration < 50) return;
      linalg::Vector mean(nodes.front().params().size());
      for (const auto& node : nodes) mean += node.params();
      mean *= 1.0 / double(nodes.size());
      for (const auto& node : nodes) {
        late_peak_residual = std::max(
            late_peak_residual, linalg::max_abs_diff(node.params(), mean));
      }
    });

    const core::TrainResult result = trainer.train(split.test);
    table.add_row({common::format_percent(failure, 0),
                   result.converged ? "yes" : "no",
                   std::to_string(result.converged_after),
                   common::format_percent(result.final_test_accuracy, 2),
                   common::format_double(late_peak_residual, 5)});
  }
  table.print(std::cout);

  std::cout << "\nEven with every fifth frame lost, training finishes "
               "and accuracy holds — a missing neighbor is simply "
               "dropped from that round's average (paper §IV-D).\n";
  return 0;
}
