#include "runtime/run_checkpoint.hpp"

#include "common/file_io.hpp"
#include "ml/checkpoint.hpp"

namespace snap::runtime {

namespace {

constexpr std::string_view kMagic = "SNAPRUN1";
// v2: per-iteration partition telemetry (components,
// largest_component_frac, partition_epoch) and sparsifier telemetry
// (links_pruned, effective_edges, slem_after_prune). v3: SnapNode's
// record drops the parked views and the initial mean |x⁰|. Older blobs
// are rejected — the loader treats that as "no checkpoint" and
// cold-replays from round 0, which determinism makes
// bitwise-equivalent.
constexpr std::uint32_t kVersion = 3;

}  // namespace

std::vector<std::byte> encode_run_checkpoint(const RunCheckpoint& ckpt) {
  return ml::seal(kMagic, kVersion, ckpt);
}

std::optional<RunCheckpoint> decode_run_checkpoint(
    std::span<const std::byte> bytes) {
  return ml::unseal<RunCheckpoint>(bytes, kMagic, kVersion);
}

bool save_run_checkpoint(const std::string& path,
                         const RunCheckpoint& ckpt) {
  return common::write_file_atomic(path, encode_run_checkpoint(ckpt));
}

std::optional<RunCheckpoint> load_run_checkpoint(const std::string& path) {
  const auto bytes = common::read_file(path);
  if (!bytes) return std::nullopt;
  return decode_run_checkpoint(*bytes);
}

}  // namespace snap::runtime
