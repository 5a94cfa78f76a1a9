#include "net/frame.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace snap::net {
namespace {

std::vector<ParamUpdate> make_updates(std::uint32_t total,
                                      std::size_t count,
                                      common::Rng& rng) {
  const auto indices = rng.sample_without_replacement(total, count);
  std::vector<std::size_t> sorted(indices.begin(), indices.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<ParamUpdate> updates;
  updates.reserve(count);
  for (const auto idx : sorted) {
    updates.push_back({static_cast<std::uint32_t>(idx), rng.normal()});
  }
  return updates;
}

// ------------------------------------------------------- size formulas

TEST(FramePayloadTest, MatchesPaperArithmetic) {
  // Paper §IV-C: N params, M unchanged → format A = 4 + 8N − 4M bytes,
  // format B = 12(N − M) bytes.
  const std::size_t n = 100;
  for (std::size_t m = 0; m <= n; ++m) {
    const std::size_t sent = n - m;
    EXPECT_EQ(frame_payload_bytes(FrameFormat::kUnchangedIndex, n, sent),
              4 + 8 * n - 4 * m);
    EXPECT_EQ(frame_payload_bytes(FrameFormat::kIndexValue, n, sent),
              12 * (n - m));
  }
}

TEST(FramePayloadTest, SentCountCannotExceedTotal) {
  EXPECT_THROW(frame_payload_bytes(FrameFormat::kIndexValue, 3, 4),
               common::ContractViolation);
}

TEST(FrameFormatChoiceTest, CrossoverAtPaperThreshold) {
  // Paper: "if N > 2M + 1, the first type of frame should be adopted."
  const std::size_t n = 101;
  for (std::size_t m = 0; m <= n; ++m) {
    const FrameFormat chosen = choose_frame_format(n, n - m);
    if (n > 2 * m + 1) {
      EXPECT_EQ(chosen, FrameFormat::kUnchangedIndex)
          << "N=" << n << " M=" << m;
    } else {
      EXPECT_EQ(chosen, FrameFormat::kIndexValue) << "N=" << n << " M=" << m;
    }
  }
}

TEST(FrameFormatChoiceTest, BestBytesIsMinimum) {
  for (std::size_t n : {1u, 2u, 10u, 1000u}) {
    for (std::size_t sent = 0; sent <= n; sent += (n >= 10 ? n / 10 : 1)) {
      const std::size_t best = best_frame_payload_bytes(n, sent);
      EXPECT_LE(best,
                frame_payload_bytes(FrameFormat::kUnchangedIndex, n, sent));
      EXPECT_LE(best, frame_payload_bytes(FrameFormat::kIndexValue, n, sent));
    }
  }
}

TEST(FrameFormatChoiceTest, NothingSentCostsNothingOnWireB) {
  EXPECT_EQ(best_frame_payload_bytes(1000, 0), 0u);
  EXPECT_EQ(choose_frame_format(1000, 0), FrameFormat::kIndexValue);
}

// ------------------------------------------------------- encode/decode

TEST(FrameCodecTest, RoundTripsDenseUpdate) {
  common::Rng rng(1);
  const auto updates = make_updates(20, 20, rng);
  const auto bytes = encode_update_frame(20, updates);
  const auto decoded = decode_update_frame(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->total_params, 20u);
  EXPECT_EQ(decoded->updates, updates);
  EXPECT_EQ(decoded->format, FrameFormat::kUnchangedIndex);
}

TEST(FrameCodecTest, RoundTripsSparseUpdate) {
  common::Rng rng(2);
  const auto updates = make_updates(1000, 3, rng);
  const auto bytes = encode_update_frame(1000, updates);
  const auto decoded = decode_update_frame(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->updates, updates);
  EXPECT_EQ(decoded->format, FrameFormat::kIndexValue);
}

TEST(FrameCodecTest, RoundTripsEmptyUpdate) {
  const auto bytes = encode_update_frame(50, {});
  const auto decoded = decode_update_frame(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->updates.empty());
  EXPECT_EQ(decoded->total_params, 50u);
}

TEST(FrameCodecTest, WireSizeMatchesFormulaPlusHeader) {
  common::Rng rng(3);
  for (const std::size_t sent : {0u, 1u, 25u, 50u, 99u, 100u}) {
    const auto updates = make_updates(100, sent, rng);
    const auto bytes = encode_update_frame(100, updates);
    // 1 tag byte + 4-byte total_params header + paper payload. This is
    // the invariant every accounting site relies on: charging
    // encoded_frame_bytes charges exactly what encode writes.
    EXPECT_EQ(bytes.size(),
              kFrameHeaderBytes + best_frame_payload_bytes(100, sent));
    EXPECT_EQ(bytes.size(), encoded_frame_bytes(100, sent));
  }
}

TEST(FrameCodecTest, EmptyHeartbeatCostsExactlyTheHeader) {
  // An empty frame (the liveness heartbeat) carries no payload but is
  // not free: the tag + total_params header still crosses the wire.
  const auto bytes = encode_update_frame(50, {});
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
  EXPECT_EQ(bytes.size(), 5u);
  EXPECT_EQ(encoded_frame_bytes(50, 0), 5u);
  const auto decoded = decode_update_frame(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->updates.empty());
  EXPECT_EQ(decoded->total_params, 50u);
}

TEST(FrameCodecTest, RoundTripsZeroParamModel) {
  // total_params = 0 is a degenerate but legal frame (a model with no
  // parameters): nothing can be sent, and the header round-trips.
  const auto bytes = encode_update_frame(0, {});
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
  const auto decoded = decode_update_frame(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->total_params, 0u);
  EXPECT_TRUE(decoded->updates.empty());
}

TEST(FrameCodecTest, RejectsUnsortedUpdates) {
  std::vector<ParamUpdate> updates{{5, 1.0}, {3, 2.0}};
  EXPECT_THROW(encode_update_frame(10, updates), common::ContractViolation);
}

TEST(FrameCodecTest, RejectsDuplicateIndices) {
  std::vector<ParamUpdate> updates{{3, 1.0}, {3, 2.0}};
  EXPECT_THROW(encode_update_frame(10, updates), common::ContractViolation);
}

TEST(FrameCodecTest, RejectsOutOfRangeIndex) {
  std::vector<ParamUpdate> updates{{10, 1.0}};
  EXPECT_THROW(encode_update_frame(10, updates), common::ContractViolation);
}

TEST(FrameCodecTest, DecodeRejectsTruncatedBuffers) {
  common::Rng rng(4);
  const auto updates = make_updates(40, 10, rng);
  const auto bytes = encode_update_frame(40, updates);
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    const auto truncated =
        std::span<const std::byte>(bytes.data(), bytes.size() - cut);
    // Format B tolerates truncation only at whole-record boundaries and
    // still decodes a valid prefix? No: record count is implied by the
    // byte count, so a whole-record cut yields *fewer* updates but stays
    // well-formed. Anything else must be rejected.
    const auto decoded = decode_update_frame(truncated);
    if (decoded.has_value()) {
      EXPECT_EQ((bytes.size() - cut - 5) % 12, 0u);
    }
  }
}

TEST(FrameCodecTest, DecodeRejectsBadTag) {
  auto bytes = encode_update_frame(10, {});
  bytes[0] = std::byte{9};
  EXPECT_FALSE(decode_update_frame(bytes).has_value());
}

TEST(FrameCodecTest, DecodeRejectsEmptyBuffer) {
  EXPECT_FALSE(decode_update_frame({}).has_value());
}

TEST(FrameCodecTest, DecodeRejectsTrailingGarbage) {
  auto bytes = encode_update_frame(10, {});
  bytes.push_back(std::byte{0});
  // One stray byte breaks the 12-byte record alignment of format B.
  EXPECT_FALSE(decode_update_frame(bytes).has_value());
}

// gtest names each case after its raw bytes, so the struct must hold no
// padding: a 32-bit total would leave four indeterminate bytes in the name.
struct CodecCase {
  std::uint64_t total;
  std::size_t sent;
};

class FrameCodecPropertyTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(FrameCodecPropertyTest, EncodeDecodeIsIdentity) {
  const auto total = static_cast<std::uint32_t>(GetParam().total);
  const std::size_t sent = GetParam().sent;
  common::Rng rng(total * 7919 + sent);
  const auto updates = make_updates(total, sent, rng);
  const auto decoded = decode_update_frame(encode_update_frame(total, updates));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->total_params, total);
  EXPECT_EQ(decoded->updates, updates);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FrameCodecPropertyTest,
    ::testing::Values(CodecCase{1, 0}, CodecCase{1, 1}, CodecCase{2, 1},
                      CodecCase{10, 5}, CodecCase{100, 33},
                      CodecCase{100, 67}, CodecCase{1000, 1},
                      CodecCase{1000, 999}, CodecCase{1000, 500},
                      CodecCase{4096, 100}));

}  // namespace
}  // namespace snap::net
