// LinkBacklog (the dense per-link transmit backlog) checked against a
// naive std::map last-write-wins reference: every random sequence of
// merge, drain, full-vector prime, clear and checkpoint save/load must
// leave both holding the same pending entries, and every drained frame
// must be the reference's entries element for element, in index order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/binary_io.hpp"
#include "common/rng.hpp"
#include "core/link_backlog.hpp"

namespace snap::core {
namespace {

/// The reference model: the std::map backlog the dense one replaced.
class MapBacklog {
 public:
  void merge(const std::vector<net::ParamUpdate>& updates) {
    for (const auto& u : updates) entries_[u.index] = u.value;
  }
  void prime(const std::vector<double>& values) {
    for (std::uint32_t p = 0; p < values.size(); ++p) entries_[p] = values[p];
  }
  void clear() { entries_.clear(); }
  std::vector<net::ParamUpdate> drain() {
    std::vector<net::ParamUpdate> frame;
    for (const auto& [index, value] : entries_) frame.push_back({index, value});
    entries_.clear();
    return frame;
  }
  std::vector<net::ParamUpdate> peek() const {
    std::vector<net::ParamUpdate> frame;
    for (const auto& [index, value] : entries_) frame.push_back({index, value});
    return frame;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::uint32_t, double> entries_;
};

/// Drives the dense backlog and the reference with the same operations
/// and checks them against each other after every step.
class BacklogChecker {
 public:
  BacklogChecker(std::size_t dim, std::uint64_t seed)
      : dim_(dim), dense_(dim), rng_(seed) {}

  void random_step() {
    const double op = rng_.uniform();
    if (op < 0.55) {
      const auto updates = random_updates();
      dense_.merge(updates);
      reference_.merge(updates);
    } else if (op < 0.75) {
      std::vector<net::ParamUpdate> drained;
      dense_.drain(drained);
      expect_equal(drained, reference_.drain(), "drain");
    } else if (op < 0.82) {
      std::vector<double> values(dim_);
      for (double& v : values) v = rng_.normal(0.0, 1.0);
      dense_.prime(values);
      reference_.prime(values);
    } else if (op < 0.88) {
      dense_.clear();
      reference_.clear();
    } else {
      common::ByteWriter writer;
      dense_.save(writer);
      const std::vector<std::byte> bytes = writer.take();
      common::ByteReader reader(bytes);
      LinkBacklog restored(dim_);
      ASSERT_TRUE(restored.load(reader));
      ASSERT_TRUE(reader.ok());
      dense_ = std::move(restored);
    }
    check();
  }

  void check() {
    ASSERT_EQ(dense_.size(), reference_.size());
    ASSERT_EQ(dense_.empty(), reference_.size() == 0);
    std::vector<net::ParamUpdate> seen;
    dense_.for_each([&](std::uint32_t index, double value) {
      seen.push_back({index, value});
    });
    expect_equal(seen, reference_.peek(), "for_each");
  }

 private:
  std::vector<net::ParamUpdate> random_updates() {
    // Index-sorted and unique, like a collect_updates frame, plus an
    // occasional unsorted batch with duplicates (the merge contract is
    // last-write-wins, whatever the order).
    std::vector<net::ParamUpdate> updates;
    const bool ordered = rng_.uniform() < 0.8;
    const double density = rng_.uniform();
    if (ordered) {
      for (std::uint32_t p = 0; p < dim_; ++p) {
        if (rng_.uniform() < density) {
          updates.push_back({p, rng_.normal(0.0, 1.0)});
        }
      }
    } else {
      const std::uint64_t count = rng_.uniform_u64(2 * dim_ + 1);
      for (std::uint64_t k = 0; k < count; ++k) {
        const auto index = static_cast<std::uint32_t>(rng_.uniform_u64(dim_));
        updates.push_back({index, rng_.normal(0.0, 1.0)});
      }
    }
    return updates;
  }

  static void expect_equal(const std::vector<net::ParamUpdate>& got,
                           const std::vector<net::ParamUpdate>& want,
                           const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k].index, want[k].index) << what << " entry " << k;
      ASSERT_EQ(got[k].value, want[k].value) << what << " entry " << k;
    }
  }

  std::size_t dim_;
  LinkBacklog dense_;
  MapBacklog reference_;
  common::Rng rng_;
};

TEST(LinkBacklogTest, MatchesMapReferenceOnRandomSequences) {
  // Dimensions straddle the 64-bit bitmap word boundaries (and the
  // 25-parameter SVM the simulations use).
  for (const std::size_t dim : {1u, 7u, 25u, 63u, 64u, 65u, 130u, 1000u}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      BacklogChecker checker(dim, seed * 1000 + dim);
      for (int step = 0; step < 200; ++step) {
        checker.random_step();
        if (::testing::Test::HasFatalFailure()) {
          FAIL() << "dim " << dim << " seed " << seed << " step " << step;
        }
      }
    }
  }
}

TEST(LinkBacklogTest, DrainEmitsIndexOrderAndEmpties) {
  LinkBacklog backlog(130);
  backlog.merge(std::vector<net::ParamUpdate>{{129, 1.0}, {3, 2.0}, {64, 3.0}});
  backlog.merge(std::vector<net::ParamUpdate>{{3, 4.0}});
  std::vector<net::ParamUpdate> frame;
  backlog.drain(frame);
  ASSERT_EQ(frame.size(), 3u);
  EXPECT_EQ(frame[0].index, 3u);
  EXPECT_EQ(frame[0].value, 4.0);  // last write wins
  EXPECT_EQ(frame[1].index, 64u);
  EXPECT_EQ(frame[2].index, 129u);
  EXPECT_TRUE(backlog.empty());
}

TEST(LinkBacklogTest, PrimeCoversEveryIndexExactlyOnce) {
  for (const std::size_t dim : {0u, 1u, 64u, 65u}) {
    LinkBacklog backlog(dim);
    std::vector<double> values(dim);
    for (std::size_t p = 0; p < dim; ++p) values[p] = static_cast<double>(p);
    backlog.prime(values);
    EXPECT_EQ(backlog.size(), dim);
    std::vector<net::ParamUpdate> frame;
    backlog.drain(frame);
    ASSERT_EQ(frame.size(), dim);
    for (std::size_t p = 0; p < dim; ++p) {
      EXPECT_EQ(frame[p].index, p);
      EXPECT_EQ(frame[p].value, static_cast<double>(p));
    }
  }
}

TEST(LinkBacklogTest, LoadRejectsMalformedImages) {
  const auto image = [](std::uint64_t entries,
                        const std::vector<std::uint32_t>& indices) {
    common::ByteWriter writer;
    writer.write_u64(entries);
    for (const std::uint32_t index : indices) {
      writer.write_u32(index);
      writer.write_f64(1.5);
    }
    return writer.take();
  };
  LinkBacklog backlog(25);
  {
    const auto bytes = image(2, {0, 24});
    common::ByteReader reader(bytes);
    EXPECT_TRUE(backlog.load(reader));
    EXPECT_EQ(backlog.size(), 2u);
  }
  {
    // Index outside the model: would be an out-of-bounds write.
    const auto bytes = image(1, {25});
    common::ByteReader reader(bytes);
    EXPECT_FALSE(backlog.load(reader));
    EXPECT_TRUE(backlog.empty());
  }
  {
    // More entries than the model has parameters.
    const auto bytes = image(26, {});
    common::ByteReader reader(bytes);
    EXPECT_FALSE(backlog.load(reader));
  }
  {
    // Truncated: the count promises an entry that is not there.
    const auto bytes = image(1, {});
    common::ByteReader reader(bytes);
    EXPECT_FALSE(backlog.load(reader));
    EXPECT_TRUE(backlog.empty());
  }
}

}  // namespace
}  // namespace snap::core
