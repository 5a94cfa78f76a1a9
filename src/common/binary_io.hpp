// Byte-level serialization used by the SNAP wire protocol (src/net), the
// socket hub's records and every checkpoint.
//
// ByteWriter appends little-endian primitives to a growable buffer;
// ByteReader consumes them back. The reader reports truncation through
// ok()/error() rather than throwing, because malformed frames are an
// expected runtime condition for a network component.
//
// Persisted state and hub records go through the field codec at the
// bottom: a struct lists its fields once, in
//   template <class Self, class Io> static void transfer(Self&, Io&)
// calling field(io, member) for each; save walks it with a ByteWriter
// (Self const), load with a ByteReader. Reads never throw or
// over-allocate: a short blob or an impossible count fails the reader,
// so a loader checks ok() once after the walk, then runs its validate().
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace snap::common {

/// FNV-1a 64-bit hash: the checksum of STATE_SYNC frames and of the
/// sealed checkpoint envelope. Each step is injective in both
/// arguments, so any single changed byte changes the digest.
inline std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// FNV-1a over the values' 64-bit patterns, one word per step in four
/// interleaved lanes (a gradient row is ~190 KB; byte-wise FNV would
/// cost more than the copy). Each step is injective in both arguments
/// and the lanes fold injectively, so any changed word changes the
/// digest.
inline std::uint64_t row_checksum(std::span<const double> values) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t lane[4] = {0xCBF29CE484222325ULL, 0x84222325CBF29CE4ULL,
                           0x9CE484222325CBF2ULL, 0x2325CBF29CE48422ULL};
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t& h = lane[i % 4];
    h = (h ^ std::bit_cast<std::uint64_t>(values[i])) * kPrime;
  }
  std::uint64_t digest = lane[0];
  for (std::size_t k = 1; k < 4; ++k) digest = (digest ^ lane[k]) * kPrime;
  return digest;
}

/// Append-only little-endian byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Pre-reserves capacity for an expected payload size.
  explicit ByteWriter(std::size_t reserve_bytes) {
    buffer_.reserve(reserve_bytes);
  }

  void write_u8(std::uint8_t value) {
    buffer_.push_back(static_cast<std::byte>(value));
  }
  void write_u16(std::uint16_t value) { write_raw(&value, sizeof value); }
  void write_u32(std::uint32_t value) { write_raw(&value, sizeof value); }
  void write_u64(std::uint64_t value) { write_raw(&value, sizeof value); }
  void write_i32(std::int32_t value) { write_raw(&value, sizeof value); }
  void write_i64(std::int64_t value) { write_raw(&value, sizeof value); }
  void write_f32(float value) { write_raw(&value, sizeof value); }
  void write_f64(double value) { write_raw(&value, sizeof value); }

  /// Appends raw bytes verbatim.
  void write_bytes(std::span<const std::byte> bytes) {
    write_raw(bytes.data(), bytes.size());
  }

  /// Number of bytes written so far.
  std::size_t size() const noexcept { return buffer_.size(); }

  /// Read-only view of the serialized buffer.
  std::span<const std::byte> bytes() const noexcept {
    return {buffer_.data(), buffer_.size()};
  }

  /// Moves the buffer out, leaving the writer empty.
  std::vector<std::byte> take() noexcept { return std::move(buffer_); }

 private:
  void write_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), p, p + n);
  }

  std::vector<std::byte> buffer_;
};

/// Sequential little-endian reader over a byte span.
///
/// All read_* methods return a value-initialized result and set the error
/// flag if the buffer is exhausted; callers check ok() once after a batch
/// of reads (monadic-style short circuit: reads after failure are no-ops).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) noexcept
      : bytes_(bytes) {}

  std::uint8_t read_u8() noexcept { return read_as<std::uint8_t>(); }
  std::uint16_t read_u16() noexcept { return read_as<std::uint16_t>(); }
  std::uint32_t read_u32() noexcept { return read_as<std::uint32_t>(); }
  std::uint64_t read_u64() noexcept { return read_as<std::uint64_t>(); }
  std::int32_t read_i32() noexcept { return read_as<std::int32_t>(); }
  std::int64_t read_i64() noexcept { return read_as<std::int64_t>(); }
  float read_f32() noexcept { return read_as<float>(); }
  double read_f64() noexcept { return read_as<double>(); }

  /// Consumes `n` raw bytes verbatim. Returns an empty vector (and sets
  /// the error flag) if fewer than `n` bytes remain.
  std::vector<std::byte> read_bytes(std::size_t n) {
    if (failed_ || offset_ + n > bytes_.size()) {
      failed_ = true;
      return {};
    }
    std::vector<std::byte> out(bytes_.begin() + static_cast<std::ptrdiff_t>(offset_),
                               bytes_.begin() + static_cast<std::ptrdiff_t>(offset_ + n));
    offset_ += n;
    return out;
  }

  /// Consumes exactly out.size() raw bytes into `out` (one copy); sets
  /// the error flag and leaves `out` alone if fewer remain.
  void read_into(std::span<std::byte> out) noexcept {
    if (failed_ || out.size() > bytes_.size() - offset_) {
      failed_ = true;
      return;
    }
    std::memcpy(out.data(), bytes_.data() + offset_, out.size());
    offset_ += out.size();
  }

  /// True while no read has run past the end of the buffer (and no
  /// field decoder refused what it read).
  bool ok() const noexcept { return !failed_; }

  /// Marks the input malformed: ok() turns false, later reads are no-ops.
  void fail() noexcept { failed_ = true; }

  /// Bytes not yet consumed.
  std::size_t remaining() const noexcept { return bytes_.size() - offset_; }

  /// Human-readable description of the failure, empty when ok().
  std::string error() const {
    return failed_ ? "truncated buffer: read past end" : std::string{};
  }

 private:
  template <typename T>
  T read_as() noexcept {
    T value{};
    if (failed_ || offset_ + sizeof(T) > bytes_.size()) {
      failed_ = true;
      return value;
    }
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

// Field codec: one overload pair per on-disk shape.
//   u64 (std::size_t), f64, u8; bool as one u8 (0 or 1, anything else
//     fails the reader)
//   u32(x): an integer as u32; the writer refuses a value above 2^32 - 1
//   constant(v): a u32 the writer stamps and the reader requires
//   a sequence (std::vector, linalg::Vector): u64 count, then each
//     element; the reader refuses a count above remaining() / width
//     before it allocates, and reads records one by one
//   a string: u32 length, then its bytes; a pair: first, then second
//   fixed(container): the elements with no count (the reader's
//     container already has the right length)
//   present(io, optional, make): a u8 flag (0 or 1), then the value
//   a map: u64 count, then key and value per entry in key order
//   rest(bytes): raw bytes to the end of the record, no count
//   checked_row(doubles): u32 count, row_checksum, then the raw doubles;
//     the reader refuses a count the input cannot hold and a mismatched
//     checksum
//   a record with a public static transfer, or a class with save and
//     bool load (a false load fails the reader)
// fields(io, a, b, ...) is field() over each argument in order.

inline void field(ByteWriter& w, std::uint64_t v) { w.write_u64(v); }
inline void field(ByteReader& r, std::uint64_t& v) { v = r.read_u64(); }
inline void field(ByteWriter& w, double v) { w.write_f64(v); }
inline void field(ByteReader& r, double& v) { v = r.read_f64(); }
inline void field(ByteWriter& w, std::uint8_t v) { w.write_u8(v); }
inline void field(ByteReader& r, std::uint8_t& v) { v = r.read_u8(); }
inline void field(ByteWriter& w, bool v) { w.write_u8(v ? 1 : 0); }
inline bool read_bool(ByteReader& r) noexcept {
  const std::uint8_t flag = r.read_u8();
  if (flag > 1) r.fail();
  return flag == 1;
}
inline void field(ByteReader& r, bool& v) { v = read_bool(r); }
inline void field(ByteReader& r, std::vector<bool>::reference v) {
  v = read_bool(r);
}

template <typename T>
struct U32Field {
  T& value;
};
template <typename T>
U32Field<T> u32(T& value) {
  return {value};
}
template <typename T>
void field(ByteWriter& w, U32Field<T> v) {
  SNAP_REQUIRE_MSG(v.value <= 0xFFFFFFFFULL,
                   "value " << v.value << " exceeds a u32 field");
  w.write_u32(static_cast<std::uint32_t>(v.value));
}
template <typename T>
void field(ByteReader& r, U32Field<T> v) {
  v.value = r.read_u32();
}

struct Constant {
  std::uint32_t value;
};
constexpr Constant constant(std::uint32_t value) { return {value}; }
inline void field(ByteWriter& w, Constant c) { w.write_u32(c.value); }
inline void field(ByteReader& r, Constant c) {
  if (r.read_u32() != c.value) r.fail();
}

template <typename C>
struct Rest {
  C& bytes;
};
template <typename C>
Rest<C> rest(C& bytes) {
  return {bytes};
}
inline void field(ByteWriter& w, Rest<const std::vector<std::byte>> run) {
  w.write_bytes(run.bytes);
}
inline void field(ByteReader& r, Rest<std::vector<std::byte>> run) {
  run.bytes = r.read_bytes(r.remaining());
}

template <typename C>
struct CheckedRow {
  C& values;
};
template <typename C>
CheckedRow<C> checked_row(C& values) {
  return {values};
}
inline void field(ByteWriter& w, CheckedRow<const std::vector<double>> row) {
  const std::span<const double> values(row.values);
  const std::size_t count = values.size();
  field(w, u32(count));
  w.write_u64(row_checksum(values));
  w.write_bytes(std::as_bytes(values));
}
inline void field(ByteReader& r, CheckedRow<std::vector<double>> row) {
  const std::uint32_t count = r.read_u32();
  const std::uint64_t checksum = r.read_u64();
  // Sized before the allocation: a damaged count must neither
  // over-allocate nor read past the record.
  if (!r.ok() || count > r.remaining() / sizeof(double)) return r.fail();
  row.values.resize(count);
  r.read_into(std::as_writable_bytes(std::span(row.values)));
  if (row_checksum(row.values) != checksum) r.fail();
}

inline void field(ByteWriter& w, const std::string& s) {
  w.write_u32(static_cast<std::uint32_t>(s.size()));
  w.write_bytes(std::as_bytes(std::span(s)));
}
inline void field(ByteReader& r, std::string& s) {
  const std::uint32_t length = r.read_u32();
  if (length > r.remaining()) return r.fail();
  s.resize(length);
  for (char& c : s) c = static_cast<char>(r.read_u8());
}

template <typename A, typename B>
void field(ByteWriter& w, const std::pair<A, B>& pair) {
  field(w, pair.first);
  field(w, pair.second);
}
template <typename A, typename B>
void field(ByteReader& r, std::pair<A, B>& pair) {
  field(r, pair.first);
  field(r, pair.second);
}

template <typename T>
  requires requires(const T& t, ByteWriter& w) { T::transfer(t, w); }
void field(ByteWriter& w, const T& record) {
  T::transfer(record, w);
}
template <typename T>
  requires requires(T& t, ByteReader& r) { T::transfer(t, r); }
void field(ByteReader& r, T& record) {
  T::transfer(record, r);
}

template <typename T>
  requires requires(const T& t, ByteWriter& w) { t.save(w); }
void field(ByteWriter& w, const T& object) {
  object.save(w);
}
template <typename T>
  requires requires(T& t, ByteReader& r) { t.load(r); }
void field(ByteReader& r, T& object) {
  if (!object.load(r)) r.fail();
}

template <typename C>
concept Sequence = std::ranges::sized_range<C> &&
                   requires(C& c, std::size_t n) { c.resize(n); };

template <Sequence C>
void field(ByteWriter& w, const C& items) {
  w.write_u64(std::ranges::size(items));
  if constexpr (std::is_same_v<C, std::vector<std::byte>>) {
    w.write_bytes(items);
  } else {
    for (const auto& item : items) field(w, item);
  }
}
template <Sequence C>
void field(ByteReader& r, C& items) {
  using T = std::ranges::range_value_t<C>;
  constexpr bool kScalar = std::is_arithmetic_v<T>;
  const std::uint64_t count = r.read_u64();
  if (count > r.remaining() / (kScalar ? sizeof(T) : 1)) return r.fail();
  if constexpr (std::is_same_v<C, std::vector<std::byte>>) {
    items = r.read_bytes(count);
  } else if constexpr (kScalar) {
    items.resize(count);
    for (auto&& item : items) field(r, item);
  } else {
    items.clear();
    for (std::uint64_t k = 0; k < count && r.ok(); ++k) {
      field(r, items.emplace_back());
    }
  }
}

template <typename C>
struct FixedRun {
  C& items;
};
template <typename C>
FixedRun<C> fixed(C& items) {
  return {items};
}
template <typename C>
void field(ByteWriter& w, FixedRun<C> run) {
  for (const auto& item : run.items) field(w, item);
}
template <typename C>
void field(ByteReader& r, FixedRun<C> run) {
  for (auto&& item : run.items) field(r, item);
}

/// True when the optional's value follows. The reader re-creates a
/// present value from make() and resets an absent one.
template <typename T, typename Make>
bool present(ByteWriter& w, const std::optional<T>& value, Make&&) {
  w.write_u8(value.has_value() ? 1 : 0);
  return value.has_value();
}
template <typename T, typename Make>
bool present(ByteReader& r, std::optional<T>& value, Make&& make) {
  const std::uint8_t flag = r.read_u8();
  if (flag > 1) r.fail();
  value.reset();
  if (flag == 1 && r.ok()) value.emplace(make());
  return value.has_value();
}

template <typename K, typename V>
void field(ByteWriter& w, const std::map<K, V>& map) {
  w.write_u64(map.size());
  for (const auto& entry : map) field(w, entry);
}
template <typename K, typename V>
void field(ByteReader& r, std::map<K, V>& map) {
  const std::uint64_t count = r.read_u64();
  map.clear();
  if (count > r.remaining()) return r.fail();
  for (std::uint64_t k = 0; k < count && r.ok(); ++k) {
    std::pair<K, V> entry;
    field(r, entry);
    if (r.ok()) map.emplace(std::move(entry));
  }
}

/// field() over each argument in order: a struct's field table.
template <typename Io, typename... Fields>
void fields(Io& io, Fields&&... each) {
  (field(io, std::forward<Fields>(each)), ...);
}

}  // namespace snap::common
