#include "runtime/run_checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/binary_io.hpp"
#include "ml/checkpoint.hpp"

namespace snap::runtime {

namespace {

constexpr char kMagic[8] = {'S', 'N', 'A', 'P', 'R', 'U', 'N', '1'};
// v2: per-iteration partition telemetry (components,
// largest_component_frac, partition_epoch) and sparsifier telemetry
// (links_pruned, effective_edges, slem_after_prune). v1 blobs are
// rejected — the loader treats that as "no checkpoint" and cold-replays
// from round 0, which determinism makes bitwise-equivalent.
constexpr std::uint32_t kVersion = 2;

// Each IterationStats column is written in table order at its natural
// width: f64 for doubles, u64 for counters, one u8 for a bool.
constexpr std::size_t column_bytes(double) { return 8; }
constexpr std::size_t column_bytes(std::uint64_t) { return 8; }
constexpr std::size_t column_bytes(bool) { return 1; }

constexpr std::size_t iteration_record_bytes() {
  const core::IterationStats probe{};
  std::size_t total = 0;
  core::for_each_stat_column([&](const auto& column) {
    total += column_bytes(probe.*column.member);
  });
  return total;
}

/// Bytes one serialized IterationStats occupies.
constexpr std::size_t kIterationRecordBytes = iteration_record_bytes();

void write_column(common::ByteWriter& w, double v) { w.write_f64(v); }
void write_column(common::ByteWriter& w, std::uint64_t v) { w.write_u64(v); }
void write_column(common::ByteWriter& w, bool v) { w.write_u8(v ? 1 : 0); }

void read_column(common::ByteReader& r, double& v) { v = r.read_f64(); }
void read_column(common::ByteReader& r, std::uint64_t& v) { v = r.read_u64(); }
void read_column(common::ByteReader& r, bool& v) { v = r.read_u8() != 0; }

void write_iteration(common::ByteWriter& writer,
                     const core::IterationStats& it) {
  core::for_each_stat_column(
      [&](const auto& column) { write_column(writer, it.*column.member); });
}

core::IterationStats read_iteration(common::ByteReader& reader) {
  core::IterationStats it;
  core::for_each_stat_column(
      [&](const auto& column) { read_column(reader, it.*column.member); });
  return it;
}

}  // namespace

std::vector<std::byte> encode_run_checkpoint(const RunCheckpoint& ckpt) {
  common::ByteWriter writer(256 +
                            kIterationRecordBytes * ckpt.iterations.size() +
                            ckpt.wire_state.size() +
                            ckpt.algorithm_state.size());
  for (const char c : kMagic) {
    writer.write_u8(static_cast<std::uint8_t>(c));
  }
  writer.write_u32(kVersion);
  writer.write_u64(ckpt.round);
  writer.write_f64(ckpt.sim_seconds);
  writer.write_u64(ckpt.membership_epoch);
  writer.write_u64(ckpt.alive.size());
  for (const std::uint8_t a : ckpt.alive) writer.write_u8(a);
  writer.write_u64(ckpt.iterations.size());
  for (const auto& it : ckpt.iterations) write_iteration(writer, it);
  writer.write_u64(ckpt.total_bytes);
  writer.write_u64(ckpt.total_cost);
  writer.write_u64(ckpt.wire_state.size());
  writer.write_bytes(ckpt.wire_state);
  writer.write_u64(ckpt.algorithm_state.size());
  writer.write_bytes(ckpt.algorithm_state);
  writer.write_u64(ml::fnv1a(writer.bytes()));
  return writer.take();
}

std::optional<RunCheckpoint> decode_run_checkpoint(
    std::span<const std::byte> bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 + 8 + 8) return std::nullopt;

  const std::span<const std::byte> body = bytes.first(bytes.size() - 8);
  common::ByteReader tail(bytes.subspan(bytes.size() - 8));
  if (tail.read_u64() != ml::fnv1a(body)) return std::nullopt;

  common::ByteReader reader(body);
  char magic[8];
  for (char& c : magic) c = static_cast<char>(reader.read_u8());
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return std::nullopt;
  if (reader.read_u32() != kVersion) return std::nullopt;

  RunCheckpoint ckpt;
  ckpt.round = reader.read_u64();
  ckpt.sim_seconds = reader.read_f64();
  ckpt.membership_epoch = reader.read_u64();
  const std::uint64_t alive_count = reader.read_u64();
  if (!reader.ok() || alive_count > reader.remaining()) return std::nullopt;
  ckpt.alive.reserve(alive_count);
  for (std::uint64_t i = 0; i < alive_count; ++i) {
    ckpt.alive.push_back(reader.read_u8());
  }
  const std::uint64_t iteration_count = reader.read_u64();
  // Bound by division before reserving: a multiplied-out bound wraps in
  // u64 for an adversarial count and would let reserve() throw.
  if (!reader.ok() ||
      iteration_count > reader.remaining() / kIterationRecordBytes) {
    return std::nullopt;
  }
  ckpt.iterations.reserve(iteration_count);
  for (std::uint64_t i = 0; i < iteration_count; ++i) {
    ckpt.iterations.push_back(read_iteration(reader));
  }
  ckpt.total_bytes = reader.read_u64();
  ckpt.total_cost = reader.read_u64();
  const std::uint64_t wire_length = reader.read_u64();
  if (!reader.ok() || wire_length > reader.remaining()) return std::nullopt;
  ckpt.wire_state = reader.read_bytes(wire_length);
  const std::uint64_t algo_length = reader.read_u64();
  if (!reader.ok() || algo_length != reader.remaining()) return std::nullopt;
  ckpt.algorithm_state = reader.read_bytes(algo_length);
  if (!reader.ok()) return std::nullopt;
  return ckpt;
}

bool save_run_checkpoint(const std::string& path,
                         const RunCheckpoint& ckpt) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return false;
    const auto bytes = encode_run_checkpoint(ckpt);
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!file) return false;
  }
  // rename(2) is atomic within a filesystem: readers see either the old
  // complete file or the new complete file, never a torn write.
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<RunCheckpoint> load_run_checkpoint(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return std::nullopt;
  const std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!file) return std::nullopt;
  return decode_run_checkpoint(bytes);
}

}  // namespace snap::runtime
