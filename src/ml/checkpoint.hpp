// Model checkpointing: save/load a flat parameter vector with a small
// self-describing header, so a trained edge model can be persisted and
// shipped (e.g. to newly joining edge servers).
//
// Both checkpoint formats (this one and runtime::RunCheckpoint) share
// the sealed-file envelope declared here:
//   magic (8 bytes) | version u32 | body | checksum u64 (FNV-1a over
//   everything before it)
// and common/file_io's whole-file reader and atomic (tmp + rename)
// writer.
//
// Model checkpoint body (little-endian, common::field shapes):
//   model name (u32 length + bytes) | param count u64 | params f64 × count
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_io.hpp"
#include "linalg/vector.hpp"

namespace snap::ml {

/// The envelope's checksum.
using common::fnv1a;

/// Seals `value` through T::transfer: magic | version | body | FNV-1a.
/// `magic` must be 8 characters.
template <typename T>
std::vector<std::byte> seal(std::string_view magic, std::uint32_t version,
                            const T& value) {
  common::ByteWriter writer;
  writer.write_bytes(std::as_bytes(std::span(magic)));
  writer.write_u32(version);
  T::transfer(value, writer);
  writer.write_u64(fnv1a(writer.bytes()));
  return writer.take();
}

/// Decodes a blob sealed by seal(): nullopt when it is too short, its
/// checksum fails, its magic or version differ, or its body does not
/// transfer into a T with no byte left over.
template <typename T>
std::optional<T> unseal(std::span<const std::byte> blob,
                        std::string_view magic, std::uint32_t version) {
  if (blob.size() < magic.size() + 4 + 8) return std::nullopt;
  const std::span<const std::byte> sealed = blob.first(blob.size() - 8);
  if (common::ByteReader(blob.last(8)).read_u64() != fnv1a(sealed)) {
    return std::nullopt;
  }
  common::ByteReader reader(sealed);
  for (const char c : magic) {
    if (reader.read_u8() != static_cast<std::uint8_t>(c)) return std::nullopt;
  }
  if (reader.read_u32() != version) return std::nullopt;
  T value;
  T::transfer(value, reader);
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return value;
}

struct Checkpoint {
  std::string model_name;  ///< e.g. "mlp-784-30-10" — matched on load
  linalg::Vector params;

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    fields(io, self.model_name, self.params);
  }
};

/// Serializes a checkpoint to bytes.
std::vector<std::byte> encode_checkpoint(const Checkpoint& checkpoint);

/// Parses bytes produced by encode_checkpoint. Returns nullopt on a
/// malformed buffer, wrong magic/version, or checksum mismatch.
std::optional<Checkpoint> decode_checkpoint(
    std::span<const std::byte> bytes);

/// Writes a checkpoint to `path`. Returns false on I/O failure.
bool save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Reads a checkpoint from `path`. Returns nullopt on I/O failure or a
/// malformed file.
std::optional<Checkpoint> load_checkpoint(const std::string& path);

}  // namespace snap::ml
