#include "net/frame.hpp"

#include <algorithm>

#include "common/binary_io.hpp"
#include "common/check.hpp"

namespace snap::net {

namespace {

constexpr std::size_t kIntBytes = 4;
constexpr std::size_t kValueBytes = 8;

/// Validates the caller-supplied update list: sorted, unique, in range.
void check_updates(std::uint32_t total_params,
                   std::span<const ParamUpdate> updates) {
  SNAP_REQUIRE_MSG(updates.size() <= total_params,
                   "more updates than parameters");
  for (std::size_t i = 0; i < updates.size(); ++i) {
    SNAP_REQUIRE_MSG(updates[i].index < total_params,
                     "update index " << updates[i].index
                                     << " out of range for "
                                     << total_params);
    if (i > 0) {
      SNAP_REQUIRE_MSG(updates[i - 1].index < updates[i].index,
                       "updates must be sorted and unique");
    }
  }
}

}  // namespace

std::size_t frame_payload_bytes(FrameFormat format, std::size_t total_params,
                                std::size_t sent_params) {
  SNAP_REQUIRE(sent_params <= total_params);
  const std::size_t unchanged = total_params - sent_params;
  switch (format) {
    case FrameFormat::kUnchangedIndex:
      // 4 + 4M + 8(N−M) = 4 + 8N − 4M.
      return kIntBytes + kIntBytes * unchanged + kValueBytes * sent_params;
    case FrameFormat::kIndexValue:
      return (kIntBytes + kValueBytes) * sent_params;
  }
  SNAP_ASSERT(false);
  return 0;
}

FrameFormat choose_frame_format(std::size_t total_params,
                                std::size_t sent_params) {
  const std::size_t a =
      frame_payload_bytes(FrameFormat::kUnchangedIndex, total_params,
                          sent_params);
  const std::size_t b = frame_payload_bytes(FrameFormat::kIndexValue,
                                            total_params, sent_params);
  return a < b ? FrameFormat::kUnchangedIndex : FrameFormat::kIndexValue;
}

std::size_t best_frame_payload_bytes(std::size_t total_params,
                                     std::size_t sent_params) {
  return frame_payload_bytes(choose_frame_format(total_params, sent_params),
                             total_params, sent_params);
}

std::size_t encoded_frame_bytes(std::size_t total_params,
                                std::size_t sent_params) {
  return kFrameHeaderBytes + best_frame_payload_bytes(total_params,
                                                      sent_params);
}

std::vector<std::byte> encode_update_frame(
    std::uint32_t total_params, std::span<const ParamUpdate> updates) {
  check_updates(total_params, updates);
  const FrameFormat format =
      choose_frame_format(total_params, updates.size());

  common::ByteWriter writer(
      kFrameHeaderBytes +
      frame_payload_bytes(format, total_params, updates.size()));
  writer.write_u8(static_cast<std::uint8_t>(format));
  writer.write_u32(total_params);

  if (format == FrameFormat::kUnchangedIndex) {
    const auto unchanged_count =
        static_cast<std::uint32_t>(total_params - updates.size());
    writer.write_u32(unchanged_count);
    // Walk 0..N−1 emitting indices not present in `updates`.
    std::size_t next_update = 0;
    for (std::uint32_t idx = 0; idx < total_params; ++idx) {
      if (next_update < updates.size() &&
          updates[next_update].index == idx) {
        ++next_update;
      } else {
        writer.write_u32(idx);
      }
    }
    for (const ParamUpdate& u : updates) {
      writer.write_f64(u.value);
    }
  } else {
    for (const ParamUpdate& u : updates) {
      writer.write_u32(u.index);
      writer.write_f64(u.value);
    }
  }
  return writer.take();
}

std::optional<UpdateFrame> decode_update_frame(
    std::span<const std::byte> bytes) {
  common::ByteReader reader(bytes);
  const std::uint8_t tag = reader.read_u8();
  const std::uint32_t total_params = reader.read_u32();
  if (!reader.ok() || tag > 1) return std::nullopt;

  UpdateFrame frame;
  frame.total_params = total_params;
  frame.format = static_cast<FrameFormat>(tag);

  if (frame.format == FrameFormat::kUnchangedIndex) {
    const std::uint32_t unchanged_count = reader.read_u32();
    if (!reader.ok() || unchanged_count > total_params) return std::nullopt;
    // Validate the exact payload size BEFORE allocating anything sized
    // by header fields: a corrupted total_params must not drive an
    // unbounded allocation (found by fuzzing). 64-bit arithmetic avoids
    // overflow of the expected-size product.
    const std::uint64_t expected =
        kIntBytes * static_cast<std::uint64_t>(unchanged_count) +
        kValueBytes *
            (static_cast<std::uint64_t>(total_params) - unchanged_count);
    if (reader.remaining() != expected) return std::nullopt;

    std::vector<bool> is_unchanged(total_params, false);
    for (std::uint32_t i = 0; i < unchanged_count; ++i) {
      const std::uint32_t idx = reader.read_u32();
      if (!reader.ok() || idx >= total_params || is_unchanged[idx]) {
        return std::nullopt;
      }
      is_unchanged[idx] = true;
    }
    frame.updates.reserve(total_params - unchanged_count);
    for (std::uint32_t idx = 0; idx < total_params; ++idx) {
      if (is_unchanged[idx]) continue;
      const double value = reader.read_f64();
      if (!reader.ok()) return std::nullopt;
      frame.updates.push_back({idx, value});
    }
  } else {
    // Remaining bytes must be a whole number of (u32, f64) records.
    if (reader.remaining() % (kIntBytes + kValueBytes) != 0) {
      return std::nullopt;
    }
    const std::size_t count = reader.remaining() / (kIntBytes + kValueBytes);
    if (count > total_params) return std::nullopt;
    frame.updates.reserve(count);
    std::uint32_t last_index = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t idx = reader.read_u32();
      const double value = reader.read_f64();
      if (!reader.ok() || idx >= total_params) return std::nullopt;
      if (i > 0 && idx <= last_index) return std::nullopt;
      last_index = idx;
      frame.updates.push_back({idx, value});
    }
  }
  if (reader.remaining() != 0) return std::nullopt;
  return frame;
}

namespace {

constexpr std::size_t kChecksumBytes = 8;

}  // namespace

std::size_t state_sync_frame_bytes(std::size_t total_params) {
  return kFrameHeaderBytes + kChecksumBytes + kValueBytes * total_params;
}

std::vector<std::byte> encode_state_sync_frame(
    std::span<const double> params) {
  SNAP_REQUIRE_MSG(params.size() <= 0xFFFFFFFFULL,
                   "state sync payload exceeds u32 parameter count");
  common::ByteWriter payload(kValueBytes * params.size());
  for (const double v : params) payload.write_f64(v);

  common::ByteWriter writer(state_sync_frame_bytes(params.size()));
  writer.write_u8(kStateSyncTag);
  writer.write_u32(static_cast<std::uint32_t>(params.size()));
  writer.write_u64(common::fnv1a(payload.bytes()));
  writer.write_bytes(payload.bytes());
  return writer.take();
}

std::optional<std::vector<double>> decode_state_sync_frame(
    std::span<const std::byte> bytes) {
  common::ByteReader reader(bytes);
  const std::uint8_t tag = reader.read_u8();
  const std::uint32_t total_params = reader.read_u32();
  const std::uint64_t checksum = reader.read_u64();
  if (!reader.ok() || tag != kStateSyncTag) return std::nullopt;
  // Exact-size check before touching the payload: a corrupted
  // total_params must neither truncate-read nor over-allocate.
  const std::uint64_t expected =
      kValueBytes * static_cast<std::uint64_t>(total_params);
  if (reader.remaining() != expected) return std::nullopt;
  if (common::fnv1a(bytes.subspan(kFrameHeaderBytes + kChecksumBytes)) != checksum) {
    return std::nullopt;
  }

  std::vector<double> params;
  params.reserve(total_params);
  for (std::uint32_t i = 0; i < total_params; ++i) {
    params.push_back(reader.read_f64());
  }
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return params;
}

}  // namespace snap::net
