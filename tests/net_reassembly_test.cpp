// FrameReassembler: a stream socket delivers bytes, not records — the
// reassembler must reproduce every record byte-exactly no matter how
// the stream is split across reads, surface records whole or not at
// all, and poison the stream on a garbage length prefix instead of
// buffering unboundedly.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"
#include "net/reassembly.hpp"
#include "net/socket_transport.hpp"

namespace snap::net {
namespace {

std::vector<std::byte> pattern_payload(std::size_t size,
                                       std::uint8_t salt) {
  std::vector<std::byte> payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::byte>((i * 131 + salt) & 0xFF);
  }
  return payload;
}

TEST(FrameReassemblerTest, RoundTripsSingleRecord) {
  const auto payload = pattern_payload(37, 1);
  FrameReassembler reassembler;
  reassembler.feed(FrameReassembler::frame(payload));
  const auto record = reassembler.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(*record, payload);
  EXPECT_FALSE(reassembler.next().has_value());
  EXPECT_EQ(reassembler.buffered_bytes(), 0u);
}

TEST(FrameReassemblerTest, EmptyRecordIsLegal) {
  FrameReassembler reassembler;
  reassembler.feed(FrameReassembler::frame({}));
  const auto record = reassembler.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->empty());
}

TEST(FrameReassemblerTest, OneByteAtATimeAcrossRecordBoundaries) {
  // The adversarial split: every read() returns one byte, across three
  // back-to-back records of different sizes (including zero).
  const std::vector<std::vector<std::byte>> payloads = {
      pattern_payload(5, 2), pattern_payload(0, 3), pattern_payload(64, 4)};
  std::vector<std::byte> stream;
  for (const auto& p : payloads) {
    const auto framed = FrameReassembler::frame(p);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  FrameReassembler reassembler;
  std::vector<std::vector<std::byte>> records;
  for (const std::byte b : stream) {
    reassembler.feed({&b, 1});
    while (auto record = reassembler.next()) {
      records.push_back(std::move(*record));
    }
  }
  EXPECT_EQ(records, payloads);
  EXPECT_EQ(reassembler.buffered_bytes(), 0u);
}

TEST(FrameReassemblerTest, RandomSplitsReassembleByteExactly) {
  common::Rng rng(2020);
  for (int trial = 0; trial < 50; ++trial) {
    // A batch of records with random sizes, concatenated, then fed in
    // random-length chunks that ignore record boundaries entirely.
    const std::size_t count = 1 + rng.uniform_u64(8);
    std::vector<std::vector<std::byte>> payloads;
    std::vector<std::byte> stream;
    for (std::size_t i = 0; i < count; ++i) {
      payloads.push_back(
          pattern_payload(rng.uniform_u64(300),
                          static_cast<std::uint8_t>(rng.uniform_u64(256))));
      const auto framed = FrameReassembler::frame(payloads.back());
      stream.insert(stream.end(), framed.begin(), framed.end());
    }
    FrameReassembler reassembler;
    std::vector<std::vector<std::byte>> records;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t chunk =
          1 + rng.uniform_u64(stream.size() - offset);
      reassembler.feed({stream.data() + offset, chunk});
      offset += chunk;
      while (auto record = reassembler.next()) {
        records.push_back(std::move(*record));
      }
    }
    EXPECT_EQ(records, payloads);
    EXPECT_EQ(reassembler.buffered_bytes(), 0u);
  }
}

TEST(FrameReassemblerTest, PartialRecordStaysBuffered) {
  const auto payload = pattern_payload(100, 9);
  const auto framed = FrameReassembler::frame(payload);
  FrameReassembler reassembler;
  reassembler.feed({framed.data(), framed.size() - 1});
  EXPECT_FALSE(reassembler.next().has_value());
  EXPECT_EQ(reassembler.buffered_bytes(), framed.size() - 1);
  reassembler.feed({framed.data() + framed.size() - 1, 1});
  const auto record = reassembler.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(*record, payload);
}

TEST(FrameReassemblerTest, OversizedPrefixPoisonsTheStream) {
  // A length prefix above the cap is unrecoverable garbage: the stream
  // poisons instead of waiting for 4 GiB that will never arrive.
  FrameReassembler reassembler(/*max_record_bytes=*/64);
  const std::vector<std::byte> prefix = {
      std::byte{0xFF}, std::byte{0xFF}, std::byte{0xFF}, std::byte{0x7F}};
  reassembler.feed(prefix);  // bytes alone are fine; the parse poisons
  EXPECT_THROW(reassembler.next(), common::ContractViolation);
  // Once poisoned, the stream is dead for good.
  EXPECT_THROW(reassembler.feed(prefix), common::ContractViolation);
  EXPECT_THROW(reassembler.next(), common::ContractViolation);
}

TEST(FrameReassemblerTest, RecordAtExactlyTheCapIsAccepted) {
  FrameReassembler reassembler(/*max_record_bytes=*/64);
  const auto payload = pattern_payload(64, 5);
  reassembler.feed(FrameReassembler::frame(payload));
  const auto record = reassembler.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(*record, payload);
}

TEST(FrameReassemblerTest, ManySmallRecordsTriggerCompaction) {
  // Push enough consumed bytes through one reassembler that the
  // internal buffer compaction fires; records must stay byte-exact.
  FrameReassembler reassembler;
  for (int i = 0; i < 500; ++i) {
    const auto payload =
        pattern_payload(48, static_cast<std::uint8_t>(i & 0xFF));
    reassembler.feed(FrameReassembler::frame(payload));
    const auto record = reassembler.next();
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(*record, payload);
  }
  EXPECT_EQ(reassembler.buffered_bytes(), 0u);
}

TEST(WireRecordTest, RoundTripsThroughEncodeDecode) {
  WireRecord record;
  record.flip = 41;
  record.seq = 7777;
  record.from = 3;
  record.to = 12;
  record.state_sync = true;
  record.charged_bytes = 999;
  record.payload = pattern_payload(23, 6);
  const auto decoded = decode_record<WireRecord>(encode_record(record));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flip, record.flip);
  EXPECT_EQ(decoded->seq, record.seq);
  EXPECT_EQ(decoded->from, record.from);
  EXPECT_EQ(decoded->to, record.to);
  EXPECT_EQ(decoded->state_sync, record.state_sync);
  EXPECT_EQ(decoded->charged_bytes, record.charged_bytes);
  EXPECT_EQ(decoded->payload, record.payload);
}

TEST(WireRecordTest, TruncatedOrMalformedRecordsAreRejected) {
  WireRecord record;
  record.payload = pattern_payload(8, 7);
  auto bytes = encode_record(record);
  // Truncated below the fixed header.
  EXPECT_FALSE(
      decode_record<WireRecord>({bytes.data(), 10}).has_value());
  // Wrong record-type byte.
  auto wrong_type = bytes;
  wrong_type[0] = std::byte{99};
  EXPECT_FALSE(decode_record<WireRecord>(wrong_type).has_value());
  // state_sync flag outside {0, 1}.
  auto bad_flag = bytes;
  bad_flag[1 + 8 + 8 + 4 + 4] = std::byte{2};
  EXPECT_FALSE(decode_record<WireRecord>(bad_flag).has_value());
}

TEST(WireRecordTest, HeartbeatRoundTripsAndRejectsDamage) {
  HeartbeatRecord record;
  record.flip = 0x1122334455667788ULL;
  const auto bytes = encode_record(record);
  const auto decoded = decode_record<HeartbeatRecord>(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flip, record.flip);

  // Every truncation is rejected whole.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_record<HeartbeatRecord>({bytes.data(), len}).has_value())
        << "truncation to " << len;
  }
  // Wrong record-type byte.
  auto wrong_type = bytes;
  wrong_type[0] = std::byte{99};
  EXPECT_FALSE(decode_record<HeartbeatRecord>(wrong_type).has_value());
  // Trailing garbage means the frame was not a heartbeat after all.
  auto padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_record<HeartbeatRecord>(padded).has_value());
}

TEST(WireRecordTest, ReconnectRoundTripsAndRejectsDamage) {
  ReconnectRecord record;
  record.shape.shard = 3;
  record.shape.shards = 4;
  record.shape.nodes = 60;
  record.incarnation = 7;
  const auto bytes = encode_record(record);
  const auto decoded = decode_record<ReconnectRecord>(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shape.shard, record.shape.shard);
  EXPECT_EQ(decoded->shape.shards, record.shape.shards);
  EXPECT_EQ(decoded->shape.nodes, record.shape.nodes);
  EXPECT_EQ(decoded->shape.version, kProtocolVersion);
  EXPECT_EQ(decoded->incarnation, record.incarnation);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_record<ReconnectRecord>({bytes.data(), len}).has_value())
        << "truncation to " << len;
  }
  auto wrong_type = bytes;
  wrong_type[0] = std::byte{99};
  EXPECT_FALSE(decode_record<ReconnectRecord>(wrong_type).has_value());
  // Damaged protocol magic (right after the type byte).
  auto bad_magic = bytes;
  bad_magic[1] ^= std::byte{0x01};
  EXPECT_FALSE(decode_record<ReconnectRecord>(bad_magic).has_value());
  auto padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_record<ReconnectRecord>(padded).has_value());
}

TEST(WireRecordTest, ReconnectAckRoundTripsAndRejectsDamage) {
  ReconnectAckRecord record;
  record.shard = 1;
  record.parked_flip = 42;
  record.incarnation = 9;
  const auto bytes = encode_record(record);
  const auto decoded = decode_record<ReconnectAckRecord>(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard, record.shard);
  EXPECT_EQ(decoded->parked_flip, record.parked_flip);
  EXPECT_EQ(decoded->incarnation, record.incarnation);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_record<ReconnectAckRecord>({bytes.data(), len}).has_value())
        << "truncation to " << len;
  }
  auto wrong_type = bytes;
  wrong_type[0] = std::byte{99};
  EXPECT_FALSE(decode_record<ReconnectAckRecord>(wrong_type).has_value());
  auto bad_magic = bytes;
  bad_magic[1] ^= std::byte{0x01};
  EXPECT_FALSE(decode_record<ReconnectAckRecord>(bad_magic).has_value());
  auto padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_record<ReconnectAckRecord>(padded).has_value());
}

TEST(WireRecordTest, ShareRoundTripsAndRejectsDamage) {
  ShareRecord record;
  record.barrier = 0x0102030405060708ULL;
  record.node = 6;
  record.values = {1.5, -0.0, 3.25e-300, -7.0, 0.1, 42.0};
  const auto bytes = encode_record(record);
  const auto decoded = decode_record<ShareRecord>(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->barrier, record.barrier);
  EXPECT_EQ(decoded->node, record.node);
  ASSERT_EQ(decoded->values.size(), record.values.size());
  // Bit for bit, signed zero included.
  EXPECT_EQ(std::memcmp(decoded->values.data(), record.values.data(),
                        sizeof(double) * record.values.size()),
            0);

  // A one-double row (a node's loss) round-trips too.
  const ShareRecord loss{3, 1, {0.693}};
  const auto loss_decoded = decode_record<ShareRecord>(encode_record(loss));
  ASSERT_TRUE(loss_decoded.has_value());
  EXPECT_EQ(loss_decoded->values, loss.values);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_record<ShareRecord>({bytes.data(), len}).has_value())
        << "truncation to " << len;
  }
  auto wrong_type = bytes;
  wrong_type[0] = std::byte{99};
  EXPECT_FALSE(decode_record<ShareRecord>(wrong_type).has_value());
  auto padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_record<ShareRecord>(padded).has_value());
  // A count that disagrees with the size (type + barrier + node first).
  auto bad_count = bytes;
  bad_count[1 + 8 + 4] ^= std::byte{0x01};
  EXPECT_FALSE(decode_record<ShareRecord>(bad_count).has_value());
  // Any flipped bit in the values fails the checksum.
  for (std::size_t at = bytes.size() - 8 * record.values.size();
       at < bytes.size(); at += 5) {
    auto flipped = bytes;
    flipped[at] ^= std::byte{0x10};
    EXPECT_FALSE(decode_record<ShareRecord>(flipped).has_value())
        << "bit flip at byte " << at;
  }
}

TEST(WireRecordTest, HelloRoundTripsAndRejectsDamage) {
  const HelloRecord record{{2, 5, 40}};
  const auto bytes = encode_record(record);
  const auto decoded = decode_record<HelloRecord>(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shape.shard, 2u);
  EXPECT_EQ(decoded->shape.shards, 5u);
  EXPECT_EQ(decoded->shape.nodes, 40u);
  EXPECT_EQ(decoded->shape.version, kProtocolVersion);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_record<HelloRecord>({bytes.data(), len}).has_value())
        << "truncation to " << len;
  }
  auto wrong_type = bytes;
  wrong_type[0] = std::byte{99};
  EXPECT_FALSE(decode_record<HelloRecord>(wrong_type).has_value());
  auto bad_magic = bytes;
  bad_magic[1] ^= std::byte{0x01};
  EXPECT_FALSE(decode_record<HelloRecord>(bad_magic).has_value());
  // One trailing byte: refused, like every other record type.
  auto padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_record<HelloRecord>(padded).has_value());
}

TEST(WireRecordTest, BarrierRoundTripsAndRejectsDamage) {
  const BarrierRecord record{0x1122334455667788ULL};
  const auto bytes = encode_record(record);
  const auto decoded = decode_record<BarrierRecord>(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flip, record.flip);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_record<BarrierRecord>({bytes.data(), len}).has_value())
        << "truncation to " << len;
  }
  auto wrong_type = bytes;
  wrong_type[0] = std::byte{99};
  EXPECT_FALSE(decode_record<BarrierRecord>(wrong_type).has_value());
  auto padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_record<BarrierRecord>(padded).has_value());
}

TEST(WireRecordTest, U32FieldsRefuseWideValuesOnWrite) {
  WireRecord record;
  record.to = std::size_t{1} << 32;
  EXPECT_THROW(encode_record(record), common::ContractViolation);
  record.to = 0xFFFFFFFFu;
  const auto decoded = decode_record<WireRecord>(encode_record(record));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->to, 0xFFFFFFFFu);
}

TEST(WireRecordTest, EncodedBytesArePinned) {
  // Byte images of one fixed instance per record type. HELLO, FRAME,
  // BARRIER, HEARTBEAT, SHARE and RECONNECT_ACK are the protocol v2
  // layouts unchanged; HELLO's version word (byte 5) reads 3 since
  // RECONNECT dropped its resume flip.
  const auto b = [](std::initializer_list<int> values) {
    std::vector<std::byte> out;
    for (const int v : values) out.push_back(static_cast<std::byte>(v));
    return out;
  };
  EXPECT_EQ(encode_record(HelloRecord{{1, 2, 16}}),
            b({0x01, 0x50, 0x41, 0x4E, 0x53, 0x03, 0x00, 0x00, 0x00,
               0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x10,
               0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
  WireRecord frame;
  frame.flip = 3;
  frame.seq = 17;
  frame.from = 1;
  frame.to = 4;
  frame.state_sync = true;
  frame.charged_bytes = 64;
  frame.payload = b({0xDE, 0xAD, 0xBE, 0xEF});
  EXPECT_EQ(encode_record(frame),
            b({0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
               0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
               0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x01, 0x40,
               0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xDE, 0xAD,
               0xBE, 0xEF}));
  EXPECT_EQ(encode_record(BarrierRecord{0x0102030405060708ULL}),
            b({0x03, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(encode_record(HeartbeatRecord{12}),
            b({0x04, 0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
  EXPECT_EQ(encode_record(ShareRecord{7, 5, {1.5, -0.0, 0.25}}),
            b({0x07, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
               0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0xFD,
               0x16, 0x16, 0xC5, 0x92, 0x1D, 0x72, 0x42, 0x00, 0x00,
               0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F, 0x00, 0x00, 0x00,
               0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00,
               0x00, 0x00, 0xD0, 0x3F}));
  EXPECT_EQ(encode_record(ReconnectAckRecord{1, 42, 9}),
            b({0x06, 0x50, 0x41, 0x4E, 0x53, 0x01, 0x00, 0x00, 0x00,
               0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
               0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
  // RECONNECT: HELLO's shape under its own tag, then the incarnation.
  EXPECT_EQ(encode_record(ReconnectRecord{{1, 2, 16}, 3}),
            b({0x05, 0x50, 0x41, 0x4E, 0x53, 0x03, 0x00, 0x00, 0x00,
               0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x10,
               0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00,
               0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
}

TEST(WireRecordTest, FramedEncodingIsTheLengthPrefixedBody) {
  // The hub writes records with encode_framed, one buffer per record;
  // the stream bytes must stay FrameReassembler::frame of the body.
  WireRecord frame;
  frame.flip = 3;
  frame.payload = pattern_payload(9, 3);
  const auto same = [](const auto& record) {
    return encode_framed(record) ==
           FrameReassembler::frame(encode_record(record));
  };
  EXPECT_TRUE(same(HelloRecord{{1, 2, 8}}));
  EXPECT_TRUE(same(frame));
  EXPECT_TRUE(same(BarrierRecord{5}));
  EXPECT_TRUE(same(HeartbeatRecord{5}));
  EXPECT_TRUE(same(ReconnectRecord{{1, 2, 8}, 3}));
  EXPECT_TRUE(same(ReconnectAckRecord{0, 6, 3}));
  EXPECT_TRUE(same(ShareRecord{5, 2, std::vector<double>(23'860, 0.5)}));
  EXPECT_TRUE(same(ShareRecord{5, 2, {}}));
}

TEST(WireRecordTest, RecordTypesDoNotCrossDecode) {
  // Each decoder owns exactly one type byte: feeding it a well-formed
  // record of any *other* type must fail whole, never alias fields.
  WireRecord frame;
  frame.payload = pattern_payload(9, 3);
  const std::vector<std::vector<std::byte>> records = {
      encode_record(HelloRecord{{1, 2, 8}}),
      encode_record(frame),
      encode_record(BarrierRecord{5}),
      encode_record(HeartbeatRecord{5}),
      encode_record(ReconnectRecord{{1, 2, 8}, 3}),
      encode_record(ReconnectAckRecord{0, 6, 3}),
      encode_record(ShareRecord{5, 2, {1.0, 2.0}}),
  };
  using Decode = bool (*)(std::span<const std::byte>);
  const auto decodes = [](auto tag) -> Decode {
    using R = typename decltype(tag)::type;
    return [](std::span<const std::byte> bytes) {
      return decode_record<R>(bytes).has_value();
    };
  };
  const std::vector<Decode> decoders = {
      decodes(std::type_identity<HelloRecord>{}),
      decodes(std::type_identity<WireRecord>{}),
      decodes(std::type_identity<BarrierRecord>{}),
      decodes(std::type_identity<HeartbeatRecord>{}),
      decodes(std::type_identity<ReconnectRecord>{}),
      decodes(std::type_identity<ReconnectAckRecord>{}),
      decodes(std::type_identity<ShareRecord>{}),
  };
  for (std::size_t r = 0; r < records.size(); ++r) {
    for (std::size_t d = 0; d < decoders.size(); ++d) {
      EXPECT_EQ(decoders[d](records[r]), r == d)
          << "record " << r << " through decoder " << d;
    }
  }
}

TEST(WireRecordTest, ReconnectSupersessionIsStrict) {
  // A replayed or duplicated RECONNECT handshake (same or lower
  // incarnation than the last accepted one) must be rejected whole —
  // this predicate is the whole defense.
  EXPECT_TRUE(reconnect_supersedes(0, 1));
  EXPECT_TRUE(reconnect_supersedes(3, 7));
  EXPECT_FALSE(reconnect_supersedes(1, 1));  // duplicate
  EXPECT_FALSE(reconnect_supersedes(5, 2));  // replay of an older one
  EXPECT_FALSE(reconnect_supersedes(0, 0));  // never-resumed default
}

TEST(WireRecordTest, CorruptedStateSyncPayloadFailsWholeFrameDecode) {
  // End-to-end over the reassembler: a STATE_SYNC frame whose payload
  // was corrupted in flight reassembles fine (framing is intact) but
  // the checksummed codec rejects the whole frame — no partial adopt.
  std::vector<double> values = {1.0, -2.5, 3.25, 0.0, 7.75};
  auto payload = encode_state_sync_frame(values);
  FrameReassembler reassembler;
  auto framed = FrameReassembler::frame(payload);
  framed[framed.size() / 2] ^= std::byte{0x40};
  reassembler.feed(framed);
  const auto record = reassembler.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(decode_state_sync_frame(*record).has_value());
}

}  // namespace
}  // namespace snap::net
