// Top-k gradient sparsification (Aji & Heafield, the paper's reference
// [20]) — the other communication-reduction family the paper discusses:
// "drops some of the small data when exchanging the parameters based on
// a heuristic method without performance guarantee."
//
// Each worker uploads only the k gradient components with the largest
// magnitude (as index/value pairs, 12 bytes each — the same wire
// arithmetic as SNAP's format B). The variant with *error feedback*
// accumulates the dropped mass locally and adds it to the next
// iteration's gradient, which is what makes the heuristic workable in
// practice. Test-only (tests/baselines_topk_test runs it through the
// parameter server's compressor hook); nothing under src/ links it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "baselines/parameter_server.hpp"
#include "linalg/vector.hpp"

namespace snap::oracle {

/// Keeps the k largest-magnitude components of `gradient` (ties broken
/// by lower index), zeroing the rest. k >= gradient.size() is a no-op.
linalg::Vector sparsify_top_k(const linalg::Vector& gradient,
                              std::size_t k);

/// Wire size of a top-k upload: k (index u32, value f64) records.
std::size_t topk_wire_bytes(std::size_t k) noexcept;

/// Builds a GradientCompressor that uploads the top-k components.
/// With `error_feedback`, the dropped residual is carried into the next
/// call's gradient (one accumulator per worker).
baselines::GradientCompressor make_topk_compressor(
    std::size_t k, bool error_feedback = true);

/// Convenience: a ParameterServerConfig with the top-k compressor
/// installed.
baselines::ParameterServerConfig topk_config(
    baselines::ParameterServerConfig base, std::size_t k,
    bool error_feedback = true);

}  // namespace snap::oracle
