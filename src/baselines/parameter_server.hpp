// Parameter-server baseline (paper §V "Comparisons", after [10]).
//
// One edge server is selected uniformly at random to host the parameter
// server. Every iteration, each worker computes the gradient of its
// local objective at the current global model and ships it — one 8-byte
// double per parameter — to the PS along the least-hop path; the PS
// averages the gradients, takes a gradient step, and pushes the updated
// parameters (again 8 bytes each) back to every worker. The PS's
// co-located worker exchanges nothing over the network.
//
// The same machinery implements TernGrad (§V) via the `compressor` hook:
// TernGrad replaces the worker→server payload with a stochastically
// ternarized gradient (2 bits per parameter plus a per-worker scaler),
// leaving the server→worker direction uncompressed — exactly the
// asymmetry the paper describes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/training.hpp"
#include "data/dataset.hpp"
#include "linalg/vector.hpp"
#include "ml/model.hpp"
#include "runtime/fabric.hpp"
#include "topology/graph.hpp"

namespace snap::baselines {

/// Transforms a worker's gradient before upload and reports its wire
/// size. The default (nullptr) sends raw doubles: 8 bytes/parameter.
struct CompressedGradient {
  linalg::Vector gradient;   ///< what the server receives
  std::size_t wire_bytes = 0;  ///< bytes written to the socket
};
using GradientCompressor = std::function<CompressedGradient(
    const linalg::Vector& gradient, std::size_t worker)>;

/// The shared run settings come from runtime::RunConfig. Worker churn
/// degrades gracefully: the server aggregates whatever the surviving
/// workers upload and re-pushes the model to restarted workers. A crash
/// of the PS node itself is *not* supported — the scheme has no
/// failover, which is precisely the single-point-of-failure contrast
/// with SNAP's decentralized recovery — so scheduled crashes may not
/// target the (seed-chosen) server node, and a random crash landing on
/// it stalls the run until restart (or ends it early). Under kAsync the
/// PS round stays barrier-synchronized by construction (workers wait for
/// the push), so heterogeneity shows up purely as wall-clock time. A
/// checkpoint (sync fabric only) carries the global model, every
/// worker's copy, in-flight uploads, and the minibatch RNG stream.
struct ParameterServerConfig : runtime::RunConfig {
  double alpha = 0.05;  ///< server-side gradient step size
  core::EvalConfig eval;
  std::uint64_t seed = 1;
  /// Optional upload compressor (TernGrad installs one).
  GradientCompressor compressor;
  /// Per-worker minibatch size; 0 = deterministic full-batch gradients.
  /// TernGrad (as published) is an SGD scheme, so its configuration
  /// enables minibatching — that stochasticity is what its ternary
  /// quantizer amplifies.
  std::size_t batch_size = 0;
};

/// Runs the PS scheme over `graph` with one data shard per node.
core::TrainResult train_parameter_server(
    const topology::Graph& graph, const ml::Model& model,
    std::vector<data::Dataset> shards, const data::Dataset& test,
    const ParameterServerConfig& config);

}  // namespace snap::baselines
