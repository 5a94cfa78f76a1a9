#include "ml/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "common/binary_io.hpp"
#include "common/check.hpp"

namespace snap::ml {

namespace {

constexpr char kMagic[8] = {'S', 'N', 'A', 'P', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::vector<std::byte> encode_checkpoint(const Checkpoint& checkpoint) {
  common::ByteWriter writer(32 + checkpoint.model_name.size() +
                            8 * checkpoint.params.size());
  for (const char c : kMagic) {
    writer.write_u8(static_cast<std::uint8_t>(c));
  }
  writer.write_u32(kVersion);
  writer.write_u32(static_cast<std::uint32_t>(checkpoint.model_name.size()));
  for (const char c : checkpoint.model_name) {
    writer.write_u8(static_cast<std::uint8_t>(c));
  }
  writer.write_u64(checkpoint.params.size());
  for (std::size_t i = 0; i < checkpoint.params.size(); ++i) {
    writer.write_f64(checkpoint.params[i]);
  }
  writer.write_u64(fnv1a(writer.bytes()));
  return writer.take();
}

std::optional<Checkpoint> decode_checkpoint(
    std::span<const std::byte> bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 + 4 + 8 + 8) return std::nullopt;

  // Verify the trailing checksum over everything before it.
  const std::span<const std::byte> body = bytes.first(bytes.size() - 8);
  common::ByteReader tail_reader(bytes.subspan(bytes.size() - 8));
  if (tail_reader.read_u64() != fnv1a(body)) return std::nullopt;

  common::ByteReader reader(body);
  char magic[8];
  for (char& c : magic) c = static_cast<char>(reader.read_u8());
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return std::nullopt;
  if (reader.read_u32() != kVersion) return std::nullopt;

  const std::uint32_t name_length = reader.read_u32();
  if (!reader.ok() || name_length > body.size()) return std::nullopt;
  Checkpoint checkpoint;
  checkpoint.model_name.reserve(name_length);
  for (std::uint32_t i = 0; i < name_length; ++i) {
    checkpoint.model_name.push_back(static_cast<char>(reader.read_u8()));
  }

  const std::uint64_t count = reader.read_u64();
  if (!reader.ok() || count != reader.remaining() / 8 ||
      reader.remaining() % 8 != 0) {
    return std::nullopt;
  }
  checkpoint.params = linalg::Vector(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    checkpoint.params[i] = reader.read_f64();
  }
  if (!reader.ok()) return std::nullopt;
  return checkpoint;
}

bool save_checkpoint(const std::string& path,
                     const Checkpoint& checkpoint) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  const auto bytes = encode_checkpoint(checkpoint);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(file);
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return std::nullopt;
  const std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!file) return std::nullopt;
  return decode_checkpoint(bytes);
}

}  // namespace snap::ml
