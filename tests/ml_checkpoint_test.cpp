#include "ml/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string_view>

#include "common/binary_io.hpp"
#include "common/rng.hpp"
#include "ml/mlp.hpp"
#include "runtime/run_checkpoint.hpp"

namespace snap::ml {
namespace {

Checkpoint sample_checkpoint() {
  Checkpoint checkpoint;
  checkpoint.model_name = "linear-svm-24";
  checkpoint.params = linalg::Vector{1.5, -2.25, 0.0, 3.14159};
  return checkpoint;
}

TEST(CheckpointCodecTest, RoundTrips) {
  const Checkpoint original = sample_checkpoint();
  const auto decoded = decode_checkpoint(encode_checkpoint(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->model_name, original.model_name);
  EXPECT_TRUE(decoded->params == original.params);
}

TEST(CheckpointCodecTest, RoundTripsEmptyNameAndParams) {
  Checkpoint empty;
  const auto decoded = decode_checkpoint(encode_checkpoint(empty));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->model_name.empty());
  EXPECT_EQ(decoded->params.size(), 0u);
}

TEST(CheckpointCodecTest, RoundTripsFullMlp) {
  const Mlp mlp{MlpConfig{}};
  common::Rng rng(1);
  Checkpoint checkpoint{mlp.name(), mlp.initial_params(rng)};
  const auto decoded = decode_checkpoint(encode_checkpoint(checkpoint));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->params.size(), 23'860u);
  EXPECT_TRUE(decoded->params == checkpoint.params);
}

TEST(CheckpointCodecTest, DetectsCorruption) {
  auto bytes = encode_checkpoint(sample_checkpoint());
  // Flip one bit in the middle (a parameter byte): checksum must catch it.
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_FALSE(decode_checkpoint(bytes).has_value());
}

TEST(CheckpointCodecTest, DetectsTruncation) {
  const auto bytes = encode_checkpoint(sample_checkpoint());
  for (const std::size_t cut : {1ul, 8ul, bytes.size() - 1}) {
    const std::span<const std::byte> truncated(bytes.data(),
                                               bytes.size() - cut);
    EXPECT_FALSE(decode_checkpoint(truncated).has_value());
  }
}

TEST(CheckpointCodecTest, RejectsWrongMagic) {
  auto bytes = encode_checkpoint(sample_checkpoint());
  bytes[0] = std::byte{'X'};
  EXPECT_FALSE(decode_checkpoint(bytes).has_value());
}

TEST(CheckpointCodecTest, RejectsEmptyBuffer) {
  EXPECT_FALSE(decode_checkpoint({}).has_value());
}

TEST(CheckpointCodecTest, RejectsParamCountThatWrapsTheByteSize) {
  // A well-formed envelope whose count is 2^61: count * 8 wraps to 0,
  // which equals the 0 parameter bytes left.
  common::ByteWriter writer;
  for (const char c : std::string_view("SNAPCKPT")) {
    writer.write_u8(static_cast<std::uint8_t>(c));
  }
  writer.write_u32(1);  // version
  writer.write_u32(0);  // empty model name
  writer.write_u64(std::uint64_t{1} << 61);
  writer.write_u64(fnv1a(writer.bytes()));
  EXPECT_FALSE(decode_checkpoint(writer.bytes()).has_value());
}

TEST(CheckpointFileTest, SaveLoadRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    "snap_checkpoint_test.ckpt";
  const Checkpoint original = sample_checkpoint();
  ASSERT_TRUE(save_checkpoint(path.string(), original));
  const auto loaded = load_checkpoint(path.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->model_name, original.model_name);
  EXPECT_TRUE(loaded->params == original.params);
  std::filesystem::remove(path);
}

TEST(CheckpointFileTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(load_checkpoint("/nonexistent/dir/x.ckpt").has_value());
}

// A directory opens as an ifstream and reports a tellg() of 2^63 − 1;
// a loader must not size its buffer from that (std::bad_alloc).
TEST(CheckpointFileTest, DirectoryPathReturnsNullopt) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  EXPECT_FALSE(load_checkpoint(dir).has_value());
  EXPECT_FALSE(runtime::load_run_checkpoint(dir).has_value());
}

TEST(CheckpointFileTest, UnwritablePathReturnsFalse) {
  EXPECT_FALSE(
      save_checkpoint("/nonexistent/dir/x.ckpt", sample_checkpoint()));
}

}  // namespace
}  // namespace snap::ml
