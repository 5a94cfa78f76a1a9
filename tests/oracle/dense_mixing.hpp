// Test-only dense reference builders for the mixing matrices that
// src/consensus builds sparsely. Each is the straightforward n×n
// construction the sparse code replaced; the property suites compare
// the production CSR result (via to_dense()) against these bit for bit.
// Nothing under src/ links this library.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "consensus/weight_optimizer.hpp"
#include "consensus/weight_reprojection.hpp"
#include "linalg/matrix.hpp"
#include "topology/graph.hpp"

namespace snap::oracle {

/// Metropolis–Hastings on the alive-induced subgraph, identity rows for
/// dead nodes (`alive` has one flag per node). With `labels`, an edge
/// also needs both endpoints to share a label; kExcluded nodes get
/// identity rows.
linalg::Matrix metropolis_weights(const topology::Graph& graph,
                                  const std::vector<bool>& alive,
                                  const std::vector<std::size_t>& labels = {});

/// Dense re-projection, block-diagonal over `labels`: Metropolis, or
/// one §IV-B solve per block scattered into an identity scaffold.
linalg::Matrix reproject_weight_matrix(
    const topology::Graph& graph, const std::vector<bool>& alive,
    const std::vector<std::size_t>& labels,
    consensus::ReprojectionMethod method =
        consensus::ReprojectionMethod::kMetropolis,
    const consensus::WeightOptimizerConfig& optimizer = {});

/// The gossip fabric's per-activation mixing matrix: Metropolis–Hastings
/// on the activated links (u < v, activation order), identity rows for
/// untouched or dead nodes (`alive` empty = all alive).
linalg::Matrix activated_mixing_matrix(
    std::size_t node_count,
    std::span<const std::pair<topology::NodeId, topology::NodeId>> links,
    const std::vector<bool>& alive = {});

}  // namespace snap::oracle
