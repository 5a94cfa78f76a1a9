#include <gtest/gtest.h>

#include <cstring>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"

namespace snap::common {
namespace {

// ---------------------------------------------------------------- check

TEST(CheckTest, RequirePassesOnTrue) {
  EXPECT_NO_THROW(SNAP_REQUIRE(1 + 1 == 2));
}

TEST(CheckTest, RequireThrowsOnFalse) {
  EXPECT_THROW(SNAP_REQUIRE(false), ContractViolation);
}

TEST(CheckTest, RequireMsgCarriesContext) {
  try {
    SNAP_REQUIRE_MSG(false, "the value was " << 42);
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::strstr(e.what(), "the value was 42"), nullptr);
  }
}

TEST(CheckTest, EnsureAndAssertThrow) {
  EXPECT_THROW(SNAP_ENSURE(false), ContractViolation);
  EXPECT_THROW(SNAP_ASSERT(false), ContractViolation);
}

// ------------------------------------------------------------ binary_io

TEST(BinaryIoTest, RoundTripsAllPrimitives) {
  ByteWriter writer;
  writer.write_u8(0xAB);
  writer.write_u16(0xBEEF);
  writer.write_u32(0xDEADBEEF);
  writer.write_u64(0x0123456789ABCDEFULL);
  writer.write_i32(-12345);
  writer.write_i64(-9'000'000'000LL);
  writer.write_f32(3.5f);
  writer.write_f64(-2.718281828459045);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u8(), 0xAB);
  EXPECT_EQ(reader.read_u16(), 0xBEEF);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.read_i32(), -12345);
  EXPECT_EQ(reader.read_i64(), -9'000'000'000LL);
  EXPECT_FLOAT_EQ(reader.read_f32(), 3.5f);
  EXPECT_DOUBLE_EQ(reader.read_f64(), -2.718281828459045);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinaryIoTest, SizeAccountingIsExact) {
  ByteWriter writer;
  writer.write_u32(1);
  writer.write_f64(2.0);
  EXPECT_EQ(writer.size(), 12u);
}

TEST(BinaryIoTest, TruncatedReadSetsError) {
  ByteWriter writer;
  writer.write_u16(7);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u32(), 0u);  // value-initialized on failure
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.error().empty());
}

TEST(BinaryIoTest, ReadsAfterFailureAreNoOps) {
  ByteReader reader({});
  (void)reader.read_u64();
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.read_u8(), 0u);
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryIoTest, TakeMovesBufferOut) {
  ByteWriter writer;
  writer.write_u32(99);
  auto buffer = writer.take();
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(writer.size(), 0u);
}

TEST(BinaryIoTest, WriteBytesAppendsVerbatim) {
  ByteWriter inner;
  inner.write_u32(0xCAFEBABE);
  ByteWriter outer;
  outer.write_u8(1);
  outer.write_bytes(inner.bytes());
  ByteReader reader(outer.bytes());
  EXPECT_EQ(reader.read_u8(), 1u);
  EXPECT_EQ(reader.read_u32(), 0xCAFEBABEu);
}

// -------------------------------------------------------------- strings

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  EXPECT_EQ(split("hello", ','), std::vector<std::string>{"hello"});
}

TEST(StringsTest, JoinInvertsNonDegenerateSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, "::"), "x::y::z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, FormatBytesScalesUnits) {
  EXPECT_EQ(format_bytes(0), "0 B");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(1024.0 * 1024.0 * 1.5), "1.50 MiB");
  EXPECT_EQ(format_bytes(1024.0 * 1024.0 * 1024.0), "1.00 GiB");
}

TEST(StringsTest, FormatDoublePrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(StringsTest, FormatPercent) {
  EXPECT_EQ(format_percent(0.425), "42.5%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("snapshot", "snap"));
  EXPECT_FALSE(starts_with("snap", "snapshot"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

// ------------------------------------------------------------ stopwatch

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch sw;
  const double t1 = sw.elapsed_seconds();
  const double t2 = sw.elapsed_seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_GE(sw.elapsed_ms(), 0.0);
}

TEST(StopwatchTest, ResetRestartsFromZero) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100'000; ++i) sink = sink + 1.0;
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), 1.0);
}

}  // namespace
}  // namespace snap::common
