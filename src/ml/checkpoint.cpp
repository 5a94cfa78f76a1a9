#include "ml/checkpoint.hpp"

#include "common/file_io.hpp"

namespace snap::ml {

namespace {

constexpr std::string_view kMagic = "SNAPCKPT";
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::vector<std::byte> encode_checkpoint(const Checkpoint& checkpoint) {
  return seal(kMagic, kVersion, checkpoint);
}

std::optional<Checkpoint> decode_checkpoint(
    std::span<const std::byte> bytes) {
  return unseal<Checkpoint>(bytes, kMagic, kVersion);
}

bool save_checkpoint(const std::string& path,
                     const Checkpoint& checkpoint) {
  return common::write_file_atomic(path, encode_checkpoint(checkpoint));
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  const auto bytes = common::read_file(path);
  if (!bytes) return std::nullopt;
  return decode_checkpoint(*bytes);
}

}  // namespace snap::ml
