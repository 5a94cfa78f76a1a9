#include "experiments/scenario.hpp"

#include <algorithm>
#include <optional>

#include "baselines/centralized.hpp"
#include "baselines/parameter_server.hpp"
#include "baselines/terngrad.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "consensus/weight_reprojection.hpp"
#include "data/partition.hpp"
#include "data/synthetic_credit.hpp"
#include "data/synthetic_mnist.hpp"
#include "ml/linear_svm.hpp"
#include "ml/mlp.hpp"
#include "topology/generators.hpp"

namespace snap::experiments {

std::string_view scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kCentralized:
      return "Centralized";
    case Scheme::kSnap:
      return "SNAP";
    case Scheme::kSnap0:
      return "SNAP-0";
    case Scheme::kSno:
      return "SNO";
    case Scheme::kPs:
      return "PS";
    case Scheme::kTernGrad:
      return "TernGrad";
  }
  return "?";
}

struct Scenario::Impl {
  ScenarioConfig config;
  topology::Graph graph;
  std::unique_ptr<ml::Model> model;
  data::Dataset pooled_train{1, 2};
  data::Dataset test{1, 2};
  std::vector<data::Dataset> shards;
  consensus::SparseWeightMatrix w_baseline;
  consensus::WeightSelection w_optimized;
  mutable std::optional<double> reference_loss;
  mutable std::optional<double> reference_accuracy;
  core::IterationObserver snap_observer;
};

namespace {

/// Subsamples `all` down to `count` samples (0 keeps everything).
data::Dataset subsample(const data::Dataset& all, std::size_t count,
                        common::Rng& rng) {
  if (count == 0 || count >= all.size()) {
    std::vector<std::size_t> identity(all.size());
    for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    return all.subset(identity);
  }
  const auto chosen = rng.sample_without_replacement(all.size(), count);
  return all.subset(chosen);
}

}  // namespace

Scenario::Scenario(const ScenarioConfig& config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  common::Rng root(config.seed);

  // Topology.
  if (config.custom_topology.has_value()) {
    SNAP_REQUIRE_MSG(config.custom_topology->is_connected(),
                     "custom topology must be connected");
    impl_->graph = *config.custom_topology;
    impl_->config.nodes = impl_->graph.node_count();
  } else if (config.complete_topology) {
    impl_->graph = topology::make_complete(config.nodes);
  } else {
    common::Rng topo_rng = root.fork("topology");
    impl_->graph = topology::make_random_connected(
        config.nodes, config.average_degree, topo_rng);
  }

  // Elastic membership: latent joiners ride at the end of the id space
  // as isolated extra nodes — they hold shards and graph slots from
  // round 1 but stay outside the membership (and the connected base
  // topology) until their join attaches them.
  if (config.latent_joiners > 0) {
    const std::size_t base = impl_->graph.node_count();
    topology::Graph grown(base + config.latent_joiners);
    for (const auto& [u, v] : impl_->graph.edges()) grown.add_edge(u, v);
    impl_->graph = std::move(grown);
    impl_->config.nodes = impl_->graph.node_count();
    for (std::size_t k = 0; k < config.latent_joiners; ++k) {
      impl_->config.faults.latent_nodes.push_back(
          static_cast<topology::NodeId>(base + k));
    }
  }

  // Workload: dataset + model.
  common::Rng data_rng = root.fork("data");
  if (config.workload == Workload::kCreditSvm) {
    data::SyntheticCreditConfig credit;
    credit.seed = data_rng.fork("credit").seed();
    const data::Dataset all = data::make_synthetic_credit(credit);
    auto split = data::split_train_test(all, 0.2, config.seed ^ 0x5117ULL);
    common::Rng sub_rng = data_rng.fork("subsample");
    impl_->pooled_train =
        subsample(split.train, config.train_samples, sub_rng);
    impl_->test = subsample(split.test, config.test_samples, sub_rng);
    ml::LinearSvmConfig svm;
    svm.feature_dim = all.feature_dim();
    impl_->model = std::make_unique<ml::LinearSvm>(svm);
  } else {
    data::SyntheticMnistConfig mnist;
    mnist.seed = data_rng.fork("mnist").seed();
    mnist.label_noise = config.mnist_label_noise;
    // Generate only what the run needs; the generator is O(samples).
    mnist.train_samples =
        config.train_samples == 0 ? mnist.train_samples
                                  : config.train_samples;
    mnist.test_samples =
        config.test_samples == 0 ? mnist.test_samples : config.test_samples;
    data::SyntheticMnist generated = data::make_synthetic_mnist(mnist);
    impl_->pooled_train = std::move(generated.train);
    impl_->test = std::move(generated.test);
    impl_->model = std::make_unique<ml::Mlp>(ml::MlpConfig{});
  }

  // Random placement of samples onto edge servers (§V).
  common::Rng part_rng = root.fork("partition");
  if (config.label_skew > 0.0) {
    impl_->shards =
        data::partition_label_skew(impl_->pooled_train,
                                   impl_->graph.node_count(),
                                   config.label_skew, part_rng);
  } else {
    impl_->shards = data::partition_equal(
        impl_->pooled_train, impl_->graph.node_count(), part_rng);
  }

  // Mixing matrices. When the run grows (latent joiners / scheduled
  // joins) the graph is disconnected at round 1, so both candidates are
  // built by re-projection onto the initial member set: identity rows
  // for the absent slots, Metropolis or the §IV-B optimizer on the
  // connected base.
  const net::FaultPlan& plan = impl_->config.faults;
  if (!plan.latent_nodes.empty() || !plan.scheduled_joins.empty()) {
    std::vector<bool> initial(impl_->graph.node_count(), true);
    for (const auto i : plan.latent_nodes) initial[i] = false;
    for (const auto& event : plan.scheduled_joins) {
      initial[event.node] = false;
    }
    impl_->w_baseline = consensus::reproject_weight_matrix_sparse(
        impl_->graph, initial, consensus::ReprojectionMethod::kMetropolis);
    impl_->w_optimized.w =
        consensus::reproject_weight_matrix_sparse(
            impl_->graph, initial, consensus::ReprojectionMethod::kOptimize,
            config.weight_optimizer)
            .to_dense();
  } else {
    impl_->w_baseline =
        consensus::SparseWeightMatrix::max_degree(impl_->graph);
    impl_->w_optimized = consensus::select_weight_matrix(
        impl_->graph, config.weight_optimizer);
  }
}

Scenario::~Scenario() = default;

core::TrainResult Scenario::run(
    Scheme scheme, std::optional<core::ConvergenceCriteria> criteria) const {
  const ScenarioConfig& cfg = impl_->config;
  if (!criteria) criteria = cfg.convergence;
  // Only the SNAP family speaks the SnapWire codec; the reference and
  // PS baselines have no socket payload codec, so a sharded run that
  // reaches them is a misconfiguration worth failing loudly on.
  if (cfg.transport.kind != net::TransportKind::kSim) {
    SNAP_REQUIRE_MSG(scheme == Scheme::kSnap || scheme == Scheme::kSnap0 ||
                         scheme == Scheme::kSno,
                     "scheme " << scheme_name(scheme)
                               << " supports only --transport=sim");
  }
  switch (scheme) {
    case Scheme::kCentralized: {
      baselines::CentralizedConfig c;
      c.alpha = cfg.alpha;
      c.convergence = *criteria;
      c.seed = cfg.seed;
      return baselines::train_centralized(*impl_->model,
                                          impl_->pooled_train, impl_->test,
                                          c);
    }
    case Scheme::kSnap:
      return run_snap_variant(core::FilterMode::kApe, true,
                              cfg.link_failure_probability, criteria);
    case Scheme::kSnap0:
      return run_snap_variant(core::FilterMode::kExactChange, true,
                              cfg.link_failure_probability, criteria);
    case Scheme::kSno:
      return run_snap_variant(core::FilterMode::kSendAll, true,
                              cfg.link_failure_probability, criteria);
    case Scheme::kPs:
    case Scheme::kTernGrad: {
      baselines::ParameterServerConfig c;
      static_cast<runtime::RunConfig&>(c) = cfg;
      c.convergence = *criteria;
      c.alpha = cfg.alpha;
      c.seed = cfg.seed;
      return baselines::train_parameter_server(
          impl_->graph, *impl_->model, impl_->shards, impl_->test,
          scheme == Scheme::kTernGrad ? baselines::terngrad_config(c) : c);
    }
  }
  SNAP_ASSERT(false);
  return {};
}

core::TrainResult Scenario::run_snap_variant(
    core::FilterMode filter, bool optimized_weights,
    double link_failure_probability,
    std::optional<core::ConvergenceCriteria> criteria,
    core::StragglerPolicy straggler_policy) const {
  const ScenarioConfig& cfg = impl_->config;
  core::SnapTrainerConfig c;
  static_cast<runtime::RunConfig&>(c) = cfg;
  if (criteria) c.convergence = *criteria;
  c.straggler_policy = straggler_policy;
  c.alpha = cfg.alpha;
  c.filter = filter;
  c.ape = cfg.ape;
  c.ape_warmup_iterations = cfg.ape_warmup_iterations;
  // The legacy Fig. 9 straggler knob folds into the fault plan as a
  // memoryless link chain (same fork, same draw stream), unless the plan
  // already sets its own link bursts.
  if (link_failure_probability > 0.0 && c.faults.link_enter_burst == 0.0) {
    const net::FaultPlan legacy =
        net::FaultPlan::memoryless_links(link_failure_probability);
    c.faults.link_enter_burst = legacy.link_enter_burst;
    c.faults.link_exit_burst = legacy.link_exit_burst;
  }
  c.reproject_on_churn = cfg.reproject_on_churn;
  c.warm_start_joins = cfg.warm_start_joins;
  c.seed = cfg.seed;
  c.async_free_run = cfg.async_free_run;
  c.gossip = cfg.gossip;
  c.transport = cfg.transport;
  c.sparsify = cfg.sparsify;
  core::SnapTrainer trainer =
      optimized_weights
          ? core::SnapTrainer(impl_->graph, impl_->w_optimized.w,
                              *impl_->model, impl_->shards, c)
          : core::SnapTrainer(impl_->graph, impl_->w_baseline,
                              *impl_->model, impl_->shards, c);
  if (impl_->snap_observer) trainer.set_observer(impl_->snap_observer);
  return trainer.train(impl_->test);
}

void Scenario::set_snap_observer(core::IterationObserver observer) {
  impl_->snap_observer = std::move(observer);
}

double Scenario::reference_loss() const {
  if (!impl_->reference_loss.has_value()) {
    const core::TrainResult reference = run(Scheme::kCentralized);
    impl_->reference_loss = reference.final_train_loss;
    impl_->reference_accuracy = reference.final_test_accuracy;
  }
  return *impl_->reference_loss;
}

double Scenario::reference_accuracy() const {
  if (!impl_->reference_accuracy.has_value()) {
    (void)reference_loss();  // runs and caches the reference
  }
  return *impl_->reference_accuracy;
}

const topology::Graph& Scenario::graph() const noexcept {
  return impl_->graph;
}
const ml::Model& Scenario::model() const noexcept { return *impl_->model; }
const consensus::WeightSelection& Scenario::optimized_weights()
    const noexcept {
  return impl_->w_optimized;
}
const consensus::SparseWeightMatrix& Scenario::baseline_weights()
    const noexcept {
  return impl_->w_baseline;
}
const ScenarioConfig& Scenario::config() const noexcept {
  return impl_->config;
}
const data::Dataset& Scenario::test_set() const noexcept {
  return impl_->test;
}
std::size_t Scenario::train_size() const noexcept {
  return impl_->pooled_train.size();
}

}  // namespace snap::experiments
