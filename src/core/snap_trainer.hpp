// Distributed SNAP training run (the paper's full system).
//
// SnapTrainer wires together every piece of §IV: the per-node EXTRA
// update (eq. 8), the optimized mixing matrix (§IV-B), APE-controlled
// parameter filtering with the two-format wire protocol (§IV-C), the
// synchronous-round exchange and straggler tolerance (§IV-D), and the
// hop-weighted communication-cost accounting of §II-B. The three
// published variants are configurations of the same engine:
//   SNAP    = FilterMode::kApe
//   SNAP-0  = FilterMode::kExactChange
//   SNO     = FilterMode::kSendAll
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "consensus/sparse_weight_matrix.hpp"
#include "consensus/topology_sparsifier.hpp"
#include "core/ape.hpp"
#include "core/snap_node.hpp"
#include "core/training.hpp"
#include "data/dataset.hpp"
#include "linalg/matrix.hpp"
#include "ml/model.hpp"
#include "net/fault_injector.hpp"
#include "net/transport.hpp"
#include "runtime/fabric.hpp"
#include "topology/graph.hpp"

namespace snap::core {

/// The SNAP-specific run settings SnapTrainerConfig and
/// experiments::ScenarioConfig share, declared once so Scenario forwards
/// them (RunConfig base included) in a single slice assignment. The
/// shared run settings (convergence, threads, faults, recovery, fabric,
/// async, timing, checkpoint) come from runtime::RunConfig.
struct SnapRunConfig : runtime::RunConfig {
  ApeConfig ape;                      ///< used when filter == kApe
  /// Iterations to run before arming the APE controllers. The budget is
  /// 10% of the mean |parameter| (§V) — anchored to the model *after*
  /// it has reached its natural scale, not to the near-zero random
  /// initialization. During warmup the node sends every changed
  /// parameter (SNAP-0 behaviour), which is what the early iterations
  /// do anyway since every change dwarfs any reasonable threshold.
  std::size_t ape_warmup_iterations = 5;
  /// Self-healing on confirmed churn: re-project W onto the surviving
  /// topology (weight_reprojection) and restart the EXTRA recursion from
  /// the current iterates. Disable only for ablations — without it the
  /// recursion anchors to the dead node's frozen parameters and the
  /// known divergence mode from persistent view skew returns.
  bool reproject_on_churn = true;
  /// Warm-start joiners: when a node joins (or rejoins), one live
  /// neighbor donates its current model over a STATE_SYNC frame
  /// (bytes charged, tallied in IterationStats::state_sync_bytes) and
  /// the joiner restarts EXTRA from the donated iterate (§IV-C allows
  /// arbitrary restart points). Disable to make joiners start cold
  /// from x⁰ — the ablation in bench/elastic_membership.
  bool warm_start_joins = true;
  /// Activation scheduler used when fabric == kGossip: each round only
  /// a sparse activated link subset (random matching or per-node
  /// fan-out) exchanges frames, the node rows are rebuilt as
  /// Metropolis–Hastings weights on the activated subgraph, and
  /// non-activated links accumulate backlog exactly like down links.
  /// gossip.seed == 0 derives the schedule from the run's seed.
  runtime::GossipConfig gossip;
  /// Async-only: let nodes free-run instead of pacing each round on a
  /// frame (or heartbeat) from every neighbor. EXTRA's corrected
  /// recursion assumes aligned view snapshots — under persistent skew
  /// its accumulator amplifies the misalignment and the run diverges —
  /// so the default keeps neighborhood-local pacing: no global barrier,
  /// no incast hub, but a node waits until it has heard from all
  /// neighbors since its own last update. Enable free-running (with
  /// AsyncTimingConfig::max_staleness_rounds as the only brake) for
  /// staleness experiments.
  bool async_free_run = false;
  /// Delivery backend. kSim (default) runs in-process on the
  /// deterministic SimTransport oracle; kUds/kTcp runs this process as
  /// shard `transport.shard_id` of `transport.shards`, carrying
  /// cross-shard frames over real sockets with the SNAP frame codec.
  /// The learning trajectory is bitwise identical across backends for
  /// the same seed (the oracle contract); only wall-clock timing and
  /// OS-level byte counts differ. Socket backends require a sync or
  /// gossip fabric.
  net::TransportConfig transport;
  /// Cost-aware topology sparsification (sync/gossip fabrics only).
  /// When enabled, the trainer prunes the mixing topology under the
  /// configured SLEM/cost budget before round 1 — replacing the
  /// provided W with the re-derived one on the survivors — and re-runs
  /// the sparsifier at every membership/partition epoch on the current
  /// alive subgraph. Pruned links carry no frames (their backlog
  /// accumulates exactly like non-activated gossip links), and their
  /// burst outages stay out of IterationStats::links_down. The prune
  /// schedule is a pure function of (plan, seed, graph, epoch): it
  /// replays bitwise across thread counts, socket shards, and
  /// checkpoint resume.
  consensus::SparsifierConfig sparsify;
};

/// A crash freezes the node (pause-resume: its state survives, in-flight
/// frames don't).
struct SnapTrainerConfig : SnapRunConfig {
  double alpha = 0.05;                ///< EXTRA step size
  FilterMode filter = FilterMode::kApe;
  EvalConfig eval;
  /// How nodes treat neighbors whose round update never arrived.
  StragglerPolicy straggler_policy = StragglerPolicy::kReweight;
  /// Seeds model initialization and failure sampling.
  std::uint64_t seed = 1;
};

/// Optional per-iteration observer: (iteration index starting at 1,
/// per-node parameter vectors after the update).
using IterationObserver =
    std::function<void(std::size_t, const std::vector<SnapNode>&)>;

class SnapTrainer {
 public:
  /// `w` must be a feasible mixing matrix for `graph`
  /// (consensus::is_feasible_weight_matrix). One shard per node.
  /// `graph` and `model` are borrowed, not copied — they must outlive
  /// train(); the deleted overload rejects model temporaries, which an
  /// ASan run caught a test passing. The dense matrix is converted to
  /// the CSR form internally (bitwise the same weights), so this
  /// overload is for small-n callers and oracle tests; at edge scale
  /// pass a SparseWeightMatrix and skip the O(n²) intermediate.
  SnapTrainer(const topology::Graph& graph, const linalg::Matrix& w,
              const ml::Model& model, std::vector<data::Dataset> shards,
              SnapTrainerConfig config);
  /// Sparse-native form: `w` is validated with the O(|E|) sparse
  /// feasibility check; no dense matrix is ever materialized.
  SnapTrainer(const topology::Graph& graph,
              const consensus::SparseWeightMatrix& w, const ml::Model& model,
              std::vector<data::Dataset> shards, SnapTrainerConfig config);
  SnapTrainer(const topology::Graph&, const linalg::Matrix&, ml::Model&&,
              std::vector<data::Dataset>, SnapTrainerConfig) = delete;
  SnapTrainer(const topology::Graph&, const consensus::SparseWeightMatrix&,
              ml::Model&&, std::vector<data::Dataset>,
              SnapTrainerConfig) = delete;

  /// Runs until convergence or config.convergence.max_iterations.
  /// `test` is used for accuracy reporting (may be empty — accuracy 1.0).
  /// One-shot: the trainer consumes its shards; a second call is a
  /// contract violation (construct a fresh trainer instead).
  TrainResult train(const data::Dataset& test);

  /// Installs an observer invoked after every iteration (e.g. Fig. 2's
  /// parameter-evolution probes).
  void set_observer(IterationObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  const topology::Graph* graph_;
  consensus::SparseWeightMatrix w_;
  const ml::Model* model_;
  std::vector<data::Dataset> shards_;
  SnapTrainerConfig config_;
  IterationObserver observer_;
  bool trained_ = false;
};

}  // namespace snap::core
