// Workloads of the repository benchmark and the episode that runs one.
//
// An episode is one closed-loop training run: build every input from
// the seed (graph, data, partition, W, trainer), then train() for a
// fixed number of rounds, each round starting when the previous one
// ends. The benchmark repeats episodes of the same seed; every episode
// of one seed must reproduce the same trajectory bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/sparse_weight_matrix.hpp"
#include "core/training.hpp"
#include "data/dataset.hpp"
#include "ml/model.hpp"
#include "net/fault_injector.hpp"
#include "runtime/fabric.hpp"
#include "topology/graph.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  snap::runtime::FabricKind fabric = snap::runtime::FabricKind::kSync;
  bool mlp = false;  ///< MNIST-like MLP 784-30-10; else the credit SVM
  std::size_t nodes = 0;
  double degree = 4.0;
  std::size_t train_samples = 0;
  std::size_t test_samples = 0;
  std::size_t threads = 4;  ///< per process
  std::size_t shards = 1;   ///< > 1: one UDS shard process each
  std::size_t rounds = 0;
  /// Wall time of one plain episode, its reference run included, on an
  /// otherwise idle 4-core machine; sets how many episodes fit --seconds.
  /// A loaded machine takes up to about twice as long.
  double episode_s = 1.0;
  double alpha = 0.3;
  /// train_loss the run must reach; time/rounds/bytes-to-target key on it.
  double target_loss = 0.0;
  /// Output check: final consensus residual must be below this.
  double residual_tolerance = 0.0;
  std::size_t latent_joiners = 0;
  snap::net::FaultPlan faults;
};

/// The named workload, or nullopt. `smoke` shrinks it to a seconds-long
/// run for the benchmark's own tests (same layers, same checks).
std::optional<WorkloadSpec> find_workload(const std::string& name, bool smoke);

std::vector<std::string> workload_names();

/// Generated inputs plus how long each set-up step took.
struct Inputs {
  snap::topology::Graph graph;
  std::vector<snap::data::Dataset> shards;
  snap::data::Dataset test{1, 2};
  snap::consensus::SparseWeightMatrix w;
  std::unique_ptr<snap::ml::Model> model;
  snap::net::FaultPlan faults;
  double graph_ms = 0.0;
  double generate_ms = 0.0;
  double partition_ms = 0.0;
  double w_build_ms = 0.0;
};

Inputs build_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Where an episode's frames go: in-process (shard_id unused) or one
/// UDS shard of a multi-process run.
struct ShardRole {
  bool socket = false;
  std::size_t shard_id = 0;
  std::string rendezvous_dir;
};

struct ModelCounts {
  std::uint64_t gradient_calls = 0, loss_calls = 0, predict_calls = 0;
  double gradient_s = 0.0, loss_s = 0.0, predict_s = 0.0;
  double busy_s() const noexcept { return gradient_s + loss_s + predict_s; }
};

struct Episode {
  double setup_s = 0.0;  ///< episode start → train() entered
  double graph_ms = 0.0, generate_ms = 0.0, partition_ms = 0.0,
         w_build_ms = 0.0;
  double train_wall_s = 0.0;
  double train_cpu_s = 0.0;  ///< process CPU time spent inside train()
  /// Seconds from train() entry to the end of each round (observer).
  std::vector<double> round_end_s;
  snap::core::TrainResult result;
  std::optional<ModelCounts> model;  ///< set on traced episodes
  std::size_t edges = 0;
  std::size_t threads = 0;
};

/// Builds the inputs and trains once. Throws on any library error.
Episode run_episode(const WorkloadSpec& spec, std::uint64_t seed,
                    bool traced, const ShardRole& role);

/// The set-up half of run_episode alone (inputs plus trainer
/// construction, in-process transport): seconds taken.
double setup_only_s(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
