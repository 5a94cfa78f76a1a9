#include "runtime/run_checkpoint.hpp"

#include "common/file_io.hpp"
#include "ml/checkpoint.hpp"

namespace snap::runtime {

std::vector<std::byte> encode_run_checkpoint(const RunCheckpoint& ckpt) {
  return ml::seal(kRunCheckpointMagic, kRunCheckpointVersion, ckpt);
}

std::optional<RunCheckpoint> decode_run_checkpoint(
    std::span<const std::byte> bytes) {
  return ml::unseal<RunCheckpoint>(bytes, kRunCheckpointMagic,
                                   kRunCheckpointVersion);
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
