// Standalone per-layer probes for the traced run: each one calls a
// single module's public API at the workload's size and times it from
// the benchmark's own code.
#pragma once

#include <cstddef>
#include <cstdint>

#include "workload.hpp"

namespace perfbench {

/// Median ns per call of each SnapNode phase, replayed on one node with
/// the workload's degree, model and per-node shard.
struct NodeReplay {
  double compute_update_ns = 0.0;
  double collect_updates_ns = 0.0;
  double advance_views_ns = 0.0;
  double apply_update_ns = 0.0;
};
NodeReplay replay_snap_node(const WorkloadSpec& spec, const Inputs& inputs,
                            std::uint64_t seed, double budget_s);

/// Median µs per round of a fabric built by runtime::make_fabric at the
/// workload's kind, n and threads, whose hooks do nothing but post one
/// empty envelope per (activated) link.
double empty_round_us(const WorkloadSpec& spec, const Inputs& inputs,
                      std::uint64_t seed);

/// Median µs of ThreadPool::parallel_for over n no-op indices.
double parallel_for_us(std::size_t threads, std::size_t n, double budget_s);

/// Median µs to encode / decode one update frame of `dim` parameters
/// of which `sent` are transmitted. Throws if a decode does not
/// reproduce the encoded updates.
struct FrameCodec {
  double encode_us = 0.0;
  double decode_us = 0.0;
};
FrameCodec frame_codec_us(std::size_t dim, std::size_t sent,
                          std::uint64_t seed, double budget_s);

/// Median ms of consensus::reproject_weight_matrix_sparse under a
/// component labelling drawn from the workload's own fault plan (one
/// component when the workload has none).
double reproject_ms(const WorkloadSpec& spec, const Inputs& inputs,
                    std::uint64_t seed, double budget_s);

}  // namespace perfbench
