// Per-directed-link transmit backlog (§II-B persistent connections).
//
// Peers talk over persistent TCP connections, so a round in which a link
// is silent — down, pruned by the sparsifier, or not activated by the
// gossip schedule — delays the sender's updates rather than destroying
// them: they are merged, last write wins per parameter, into the next
// frame that link carries. A LinkBacklog is that merge buffer, dense
// over the model's parameter indices: a value array plus a present
// bitmap. Merging is O(updates), and a drain emits the pending entries
// in ascending index order — byte-for-byte the frame a sorted map
// backlog would produce. Links that fire every round never own one (the
// trainer sends them the node's shared frame directly), so the dense
// storage is paid only on links that actually fall silent.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "net/frame.hpp"

namespace snap::core {

class LinkBacklog {
 public:
  /// An empty backlog over parameter indices [0, dim).
  explicit LinkBacklog(std::size_t dim)
      : values_(dim, 0.0), present_((dim + 63) / 64, 0) {}

  /// Pending (distinct) parameter count.
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Records one pending value; a later write to the same index wins.
  void set(std::uint32_t index, double value) {
    SNAP_REQUIRE(index < values_.size());
    std::uint64_t& word = present_[index / 64];
    const std::uint64_t bit = std::uint64_t{1} << (index % 64);
    if ((word & bit) == 0) {
      word |= bit;
      ++count_;
    }
    values_[index] = value;
  }

  /// Merges a frame's updates (last write wins per parameter).
  void merge(std::span<const net::ParamUpdate> updates) {
    for (const net::ParamUpdate& u : updates) set(u.index, u.value);
  }

  /// Replaces the backlog with the full vector `values` (the join-time
  /// priming of a fresh link: its first frame carries the whole model).
  void prime(std::span<const double> values) {
    SNAP_REQUIRE(values.size() == values_.size());
    std::copy(values.begin(), values.end(), values_.begin());
    std::fill(present_.begin(), present_.end(), ~std::uint64_t{0});
    if (const std::size_t tail = values_.size() % 64; tail != 0) {
      present_.back() = (std::uint64_t{1} << tail) - 1;
    }
    count_ = values_.size();
  }

  /// Drops every pending value.
  void clear() noexcept {
    if (count_ == 0) return;
    std::fill(present_.begin(), present_.end(), std::uint64_t{0});
    count_ = 0;
  }

  /// Calls fn(index, value) for every pending entry in ascending index
  /// order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < present_.size(); ++w) {
      std::uint64_t word = present_[w];
      while (word != 0) {
        const auto index =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(word));
        fn(index, values_[index]);
        word &= word - 1;
      }
    }
  }

  /// Appends the pending entries to `out` in ascending index order and
  /// clears the backlog.
  void drain(std::vector<net::ParamUpdate>& out) {
    out.reserve(out.size() + count_);
    for_each([&](std::uint32_t index, double value) {
      out.push_back({index, value});
    });
    clear();
  }

  /// Checkpoint image: entry count, then (u32 index, f64 value) pairs in
  /// index order.
  void save(common::ByteWriter& writer) const {
    writer.write_u64(count_);
    for_each([&](std::uint32_t index, double value) {
      writer.write_u32(index);
      writer.write_f64(value);
    });
  }

  /// Replaces the contents from a save() image. Returns false — with the
  /// backlog cleared — on a truncated image, an entry count above the
  /// dimension, or an index outside it.
  bool load(common::ByteReader& reader) {
    clear();
    const std::uint64_t entries = reader.read_u64();
    if (!reader.ok() || entries > values_.size()) return false;
    for (std::uint64_t e = 0; e < entries; ++e) {
      const std::uint32_t index = reader.read_u32();
      const double value = reader.read_f64();
      if (!reader.ok() || index >= values_.size()) {
        clear();
        return false;
      }
      set(index, value);
    }
    return true;
  }

 private:
  std::vector<double> values_;
  std::vector<std::uint64_t> present_;
  std::size_t count_ = 0;
};

}  // namespace snap::core
