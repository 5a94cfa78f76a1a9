#include "workload.hpp"

#include <time.h>

#include <algorithm>
#include <span>
#include <utility>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "consensus/weight_reprojection.hpp"
#include "core/snap_trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic_credit.hpp"
#include "data/synthetic_mnist.hpp"
#include "ml/linear_svm.hpp"
#include "ml/mlp.hpp"
#include "timed_model.hpp"
#include "topology/generators.hpp"

namespace perfbench {
namespace {

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

WorkloadSpec sync_svm_n10k(bool smoke) {
  WorkloadSpec s;
  s.name = "sync_svm_n10k";
  s.fabric = snap::runtime::FabricKind::kSync;
  s.nodes = smoke ? 400 : 10'000;
  s.degree = 4.0;
  s.train_samples = 2 * s.nodes;
  s.test_samples = 1'000;
  s.threads = 4;
  s.rounds = smoke ? 40 : 100;
  s.episode_s = 3.0;
  s.alpha = 0.3;
  s.target_loss = 0.5;
  s.residual_tolerance = 2.5;
  return s;
}

// Fault rates put an epoch (confirmed churn, join or component change)
// in about 40% of rounds; the issue's starting rates (crash 5e-4, bursts
// and partitions 0.01) fired one in nearly every round.
WorkloadSpec gossip_churn_svm_n2k(bool smoke) {
  WorkloadSpec s;
  s.name = "gossip_churn_svm_n2k";
  s.fabric = snap::runtime::FabricKind::kGossip;
  s.nodes = smoke ? 300 : 2'000;
  s.degree = 4.0;
  s.latent_joiners = smoke ? 6 : 40;
  s.train_samples = 4 * (s.nodes + s.latent_joiners);
  s.test_samples = 1'000;
  s.threads = 4;
  s.rounds = smoke ? 120 : 200;
  s.episode_s = 1.0;
  s.alpha = 0.3;
  s.target_loss = 0.5;
  s.residual_tolerance = 2.5;
  s.faults.crash_probability = 5e-5;
  s.faults.restart_probability = 0.1;
  s.faults.link_enter_burst = 0.001;
  s.faults.link_exit_burst = 0.5;
  s.faults.partition_probability = 0.003;
  s.faults.partition_duration = 10;
  s.faults.partition_confirm_rounds = 2;
  s.faults.join_probability = 0.02;
  return s;
}

WorkloadSpec uds2_mlp_n16(bool smoke) {
  WorkloadSpec s;
  s.name = "uds2_mlp_n16";
  s.fabric = snap::runtime::FabricKind::kSync;
  s.mlp = true;
  s.nodes = smoke ? 8 : 16;
  s.degree = 3.0;
  s.train_samples = smoke ? 400 : 2'000;
  s.test_samples = 200;
  s.threads = 2;
  s.shards = 2;
  s.rounds = smoke ? 40 : 70;
  s.episode_s = 9.0;
  s.alpha = 0.3;
  s.target_loss = smoke ? 1.0 : 0.8;
  s.residual_tolerance = 0.05;
  return s;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"sync_svm_n10k", "gossip_churn_svm_n2k", "uds2_mlp_n16"};
}

std::optional<WorkloadSpec> find_workload(const std::string& name,
                                          bool smoke) {
  if (name == "sync_svm_n10k") return sync_svm_n10k(smoke);
  if (name == "gossip_churn_svm_n2k") return gossip_churn_svm_n2k(smoke);
  if (name == "uds2_mlp_n16") return uds2_mlp_n16(smoke);
  return std::nullopt;
}

Inputs build_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  snap::common::Rng root(seed);

  snap::common::Stopwatch step;
  snap::common::Rng topo_rng = root.fork("topology");
  in.graph = snap::topology::make_random_connected(spec.nodes, spec.degree,
                                                   topo_rng);
  in.faults = spec.faults;
  std::vector<bool> initial;
  if (spec.latent_joiners > 0) {
    // Latent joiners hold graph slots and shards from round 1 but stay
    // outside the connected base topology until a join attaches them.
    snap::topology::Graph grown(spec.nodes + spec.latent_joiners);
    for (const auto& [u, v] : in.graph.edges()) grown.add_edge(u, v);
    in.graph = std::move(grown);
    initial.assign(in.graph.node_count(), true);
    for (std::size_t k = 0; k < spec.latent_joiners; ++k) {
      in.faults.latent_nodes.push_back(spec.nodes + k);
      initial[spec.nodes + k] = false;
    }
  }
  in.graph_ms = step.elapsed_ms();

  // Like the paper, which trains on one dataset, each workload draws from
  // one fixed synthetic population (the generators' default seeds); the
  // seed picks which samples train and test, and everything after that.
  // With a population per seed, rounds_to_target spread 25-40% across
  // seeds.
  step.reset();
  snap::data::Dataset pool{1, 2};
  if (spec.mlp) {
    snap::data::SyntheticMnistConfig mnist;
    mnist.train_samples = 2 * spec.train_samples;
    mnist.test_samples = spec.test_samples;
    snap::data::SyntheticMnist generated =
        snap::data::make_synthetic_mnist(mnist);
    pool = std::move(generated.train);
    in.test = std::move(generated.test);
    in.model = std::make_unique<snap::ml::Mlp>(snap::ml::MlpConfig{});
  } else {
    snap::data::SyntheticCreditConfig credit;
    credit.samples = std::max<std::size_t>(
        credit.samples, spec.train_samples + spec.test_samples);
    pool = snap::data::make_synthetic_credit(credit);
    snap::ml::LinearSvmConfig svm;
    svm.feature_dim = pool.feature_dim();
    in.model = std::make_unique<snap::ml::LinearSvm>(svm);
  }
  snap::common::Rng sample_rng = root.fork("samples");
  const std::vector<std::size_t> picked = sample_rng.sample_without_replacement(
      pool.size(), spec.train_samples + (spec.mlp ? 0 : spec.test_samples));
  const std::span<const std::size_t> picked_view(picked);
  const snap::data::Dataset train =
      pool.subset(picked_view.first(spec.train_samples));
  if (!spec.mlp) in.test = pool.subset(picked_view.subspan(spec.train_samples));
  in.generate_ms = step.elapsed_ms();

  step.reset();
  snap::common::Rng part_rng = root.fork("partition");
  in.shards = snap::data::partition_equal(train, in.graph.node_count(),
                                          part_rng);
  in.partition_ms = step.elapsed_ms();

  step.reset();
  in.w = initial.empty()
             ? snap::consensus::SparseWeightMatrix::metropolis_on_survivors(
                   in.graph)
             : snap::consensus::reproject_weight_matrix_sparse(
                   in.graph, initial,
                   snap::consensus::ReprojectionMethod::kMetropolis);
  in.w_build_ms = step.elapsed_ms();
  return in;
}

namespace {

snap::core::SnapTrainerConfig trainer_config(const WorkloadSpec& spec,
                                             std::uint64_t seed,
                                             const Inputs& in,
                                             const ShardRole& role) {
  snap::core::SnapTrainerConfig config;
  config.alpha = spec.alpha;
  config.filter = snap::core::FilterMode::kApe;
  config.convergence.min_iterations = spec.rounds;
  config.convergence.max_iterations = spec.rounds;
  // train_loss is folded every round regardless; test accuracy only on
  // the last one.
  config.eval.every = spec.rounds;
  config.seed = seed;
  config.threads = spec.threads;
  config.fabric = spec.fabric;
  config.faults = in.faults;
  if (role.socket) {
    config.transport.kind = snap::net::TransportKind::kUds;
    config.transport.shards = spec.shards;
    config.transport.shard_id = role.shard_id;
    config.transport.rendezvous_dir = role.rendezvous_dir;
  }
  return config;
}

}  // namespace

double setup_only_s(const WorkloadSpec& spec, std::uint64_t seed) {
  const snap::common::Stopwatch setup;
  Inputs in = build_inputs(spec, seed);
  const snap::core::SnapTrainer trainer(in.graph, in.w, *in.model,
                                        std::move(in.shards),
                                        trainer_config(spec, seed, in, {}));
  return setup.elapsed_seconds();
}

Episode run_episode(const WorkloadSpec& spec, std::uint64_t seed,
                    bool traced, const ShardRole& role) {
  Episode ep;
  const snap::common::Stopwatch setup;
  Inputs in = build_inputs(spec, seed);
  ep.graph_ms = in.graph_ms;
  ep.generate_ms = in.generate_ms;
  ep.partition_ms = in.partition_ms;
  ep.w_build_ms = in.w_build_ms;
  ep.edges = in.graph.edge_count();
  ep.threads = spec.threads;

  std::unique_ptr<TimedModel> timed;
  if (traced) timed = std::make_unique<TimedModel>(*in.model);
  const snap::ml::Model& model =
      timed ? static_cast<const snap::ml::Model&>(*timed) : *in.model;

  snap::core::SnapTrainer trainer(in.graph, in.w, model, std::move(in.shards),
                                  trainer_config(spec, seed, in, role));
  ep.round_end_s.reserve(spec.rounds);
  snap::common::Stopwatch train_clock;
  trainer.set_observer(
      [&](std::size_t, const std::vector<snap::core::SnapNode>&) {
        ep.round_end_s.push_back(train_clock.elapsed_seconds());
      });
  ep.setup_s = setup.elapsed_seconds();

  const double cpu_start = process_cpu_s();
  train_clock.reset();
  ep.result = trainer.train(in.test);
  ep.train_wall_s = train_clock.elapsed_seconds();
  ep.train_cpu_s = process_cpu_s() - cpu_start;

  if (timed) {
    ModelCounts counts;
    counts.gradient_calls = timed->gradient_counter().calls.load();
    counts.gradient_s = timed->gradient_counter().busy_s();
    counts.loss_calls = timed->loss_counter().calls.load();
    counts.loss_s = timed->loss_counter().busy_s();
    counts.predict_calls = timed->predict_counter().calls.load();
    counts.predict_s = timed->predict_counter().busy_s();
    ep.model = counts;
  }
  return ep;
}

}  // namespace perfbench
