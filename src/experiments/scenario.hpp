// Experiment harness shared by every figure-reproduction bench.
//
// A Scenario owns one workload instance (dataset + partition), one
// topology, and the mixing matrices for it (the unoptimized eq.-(24)
// baseline and the §IV-B optimized selection), and can run any of the
// paper's six schemes on that identical setup — so scheme comparisons
// within a scenario differ only in the scheme.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/snap_trainer.hpp"
#include "core/training.hpp"
#include "consensus/weight_optimizer.hpp"
#include "runtime/fabric.hpp"
#include "data/dataset.hpp"
#include "linalg/matrix.hpp"
#include "ml/model.hpp"
#include "topology/graph.hpp"

namespace snap::experiments {

/// The training schemes of paper §V.
enum class Scheme {
  kCentralized,
  kSnap,      ///< APE filtering + optimized W
  kSnap0,     ///< zero-threshold filtering (only literally-unchanged skipped)
  kSno,       ///< Select-Neighbors-Only: everything sent each round
  kPs,        ///< parameter server
  kTernGrad,  ///< PS + ternary gradient upload
};

std::string_view scheme_name(Scheme scheme) noexcept;

/// Which workload of §V a scenario instantiates.
enum class Workload {
  kCreditSvm,  ///< large-scale simulations: 24-feature SVM
  kMnistMlp,   ///< testbed: 784–30–10 MLP
};

/// The shared run settings come from runtime::RunConfig; Scenario
/// forwards them to the SNAP family and the PS baselines (the
/// centralized reference takes only `convergence`). The SNAP family's
/// own knobs (APE, churn healing, gossip, transport, sparsification)
/// come from core::SnapRunConfig; the centralized and PS schemes ignore
/// them and refuse any transport but kSim.
struct ScenarioConfig : core::SnapRunConfig {
  Workload workload = Workload::kCreditSvm;
  std::size_t nodes = 60;        ///< paper default
  double average_degree = 3.0;   ///< paper default
  /// Use the complete graph (the 3-server testbed) instead of a random
  /// connected topology.
  bool complete_topology = false;
  /// Explicit topology (must be connected; overrides nodes/degree/
  /// complete_topology). Lets callers run the schemes on measured or
  /// hand-built networks.
  std::optional<topology::Graph> custom_topology;

  /// Fraction of flipped training labels for the MNIST workload (keeps
  /// the synthetic task from saturating at 100% accuracy).
  double mnist_label_noise = 0.08;

  /// Non-IID placement strength: 0 reproduces the paper's uniform
  /// random allocation; 1 fully sorts classes onto servers
  /// (data::partition_label_skew). An extension knob — the paper only
  /// evaluates IID placement.
  double label_skew = 0.0;

  /// Training/test sample budget (subsampled from the generated data so
  /// benches can trade fidelity for runtime; 0 = use everything).
  std::size_t train_samples = 0;
  std::size_t test_samples = 0;

  double alpha = 0.3;  ///< step size shared by all schemes
  /// Per-round probability that a link drops both directions' frames
  /// (the Fig. 9 straggler knob). The SNAP family folds it into `faults`
  /// as a memoryless link plan when the plan sets no link bursts itself;
  /// the PS baselines see `faults` alone.
  double link_failure_probability = 0.0;
  /// Elastic membership: latent joiners appended to the base topology as
  /// isolated extra nodes. They hold data shards from round 1 but stay
  /// outside the membership until a scheduled or random join attaches
  /// them; their ids (base_nodes .. base_nodes + latent_joiners − 1) are
  /// auto-filled into faults.latent_nodes. With joiners present the
  /// initial mixing matrices are built by re-projection onto the initial
  /// member set (identity rows for the latent slots).
  std::size_t latent_joiners = 0;
  consensus::WeightOptimizerConfig weight_optimizer;
  std::uint64_t seed = 2020;  ///< venue year — printed by every bench
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Installs a per-iteration observer forwarded to the SNAP-family
  /// trainer of every subsequent run (per-node parameter probes — e.g.
  /// per-component loss during a partition). Ignored by the
  /// centralized/PS schemes. Pass nullptr to clear.
  void set_snap_observer(core::IterationObserver observer);

  /// Runs one scheme on this scenario's fixed workload/topology, with
  /// the config's convergence criteria unless `criteria` overrides them
  /// (e.g. target-loss mode for the cross-scheme sweeps).
  core::TrainResult run(
      Scheme scheme,
      std::optional<core::ConvergenceCriteria> criteria = std::nullopt) const;

  /// Runs a SNAP-family variant with explicit knobs (used by the Fig. 5
  /// weight-matrix ablation and the Fig. 9 straggler sweep); `criteria`
  /// overrides the config's as in run().
  core::TrainResult run_snap_variant(
      core::FilterMode filter, bool optimized_weights,
      double link_failure_probability,
      std::optional<core::ConvergenceCriteria> criteria = std::nullopt,
      core::StragglerPolicy straggler_policy =
          core::StragglerPolicy::kReweight) const;

  /// The centralized scheme's converged training loss on this workload
  /// (computed once, then cached). The sweeps use
  /// target = reference_loss() × (1 + margin) as the common convergence
  /// bar for every scheme.
  double reference_loss() const;

  /// The centralized scheme's final test accuracy (computed by the same
  /// cached reference run). Basis for the paper's accuracy-based
  /// convergence bar.
  double reference_accuracy() const;

  const topology::Graph& graph() const noexcept;
  const ml::Model& model() const noexcept;
  /// Optimized mixing matrix (§IV-B selection) and its provenance.
  const consensus::WeightSelection& optimized_weights() const noexcept;
  /// Unoptimized eq.-(24) matrix.
  const consensus::SparseWeightMatrix& baseline_weights() const noexcept;
  const ScenarioConfig& config() const noexcept;
  const data::Dataset& test_set() const noexcept;
  /// Total training samples across all shards.
  std::size_t train_size() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace snap::experiments
