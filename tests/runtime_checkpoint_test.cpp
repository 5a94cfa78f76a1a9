// Round-aligned run checkpoints: serialize → restore → continue must be
// bitwise indistinguishable from a run that never stopped, for every
// scheme that supports checkpointing (SNAP family, DGD, PS baseline) on
// both shared-clock fabrics — including mid-churn, where the blob is
// written after a membership epoch already happened. Also covers the
// codec: every IterationStats column round-trips, corrupt, truncated or
// impossibly long blobs are refused, and the bounded dial/retry backoff
// saturates at its cap instead of overflowing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "experiments/scenario.hpp"
#include "runtime/fabric.hpp"
#include "ml/checkpoint.hpp"
#include "oracle/dgd.hpp"
#include "runtime/run_checkpoint.hpp"
#include "support/bitwise_result.hpp"
#include "topology/generators.hpp"

namespace snap::experiments {
namespace {

namespace fs = std::filesystem;

ScenarioConfig base_config(runtime::FabricKind fabric) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kCreditSvm;
  cfg.nodes = 8;
  cfg.train_samples = 400;
  cfg.test_samples = 100;
  cfg.seed = 7;
  cfg.fabric = fabric;
  cfg.convergence.min_iterations = 12;
  cfg.convergence.max_iterations = 12;
  return cfg;
}

using snap::testing::bits_of;
using snap::testing::expect_bitwise_equal;

/// Runs `scheme` to 12 rounds uninterrupted, then again as two halves —
/// stop at round 6 with a checkpoint, resume a fresh Scenario from the
/// blob — and requires the stitched run to match bitwise.
void expect_checkpoint_round_trip(ScenarioConfig cfg, Scheme scheme,
                                  const std::string& tag) {
  const Scenario full(cfg);
  const core::TrainResult oracle = full.run(scheme);
  ASSERT_FALSE(oracle.iterations.empty());

  const fs::path path =
      fs::temp_directory_path() /
      ("snap-ckpt-" + tag + "-" + std::to_string(::getpid()) + ".ckpt");
  fs::remove(path);

  ScenarioConfig first = cfg;
  first.convergence.min_iterations = 6;
  first.convergence.max_iterations = 6;
  first.checkpoint.path = path.string();
  first.checkpoint.every = 3;
  const Scenario half(first);
  half.run(scheme);
  ASSERT_TRUE(fs::exists(path)) << "no checkpoint written";

  ScenarioConfig second = cfg;
  second.checkpoint.path = path.string();
  second.checkpoint.every = 3;
  second.checkpoint.resume = true;
  const Scenario resumed(second);
  {
    SCOPED_TRACE(tag + ": resumed run vs the uninterrupted one");
    expect_bitwise_equal(resumed.run(scheme), oracle);
  }

  fs::remove(path);
}

TEST(RuntimeCheckpointTest, SnapSyncFabricRoundTripsBitwise) {
  expect_checkpoint_round_trip(base_config(runtime::FabricKind::kSync),
                               Scheme::kSnap, "snap-sync");
}

TEST(RuntimeCheckpointTest, SnapGossipFabricRoundTripsBitwise) {
  expect_checkpoint_round_trip(base_config(runtime::FabricKind::kGossip),
                               Scheme::kSnap, "snap-gossip");
}

/// Sparsified legs: the resumed run must rebuild the pruned-link set,
/// the duty-cycle masks, and the telemetry counters from the blob's
/// algorithm state, so the pruned timeline (including the three
/// sparsifier columns per iteration) replays bitwise.
ScenarioConfig sparsified_config(runtime::FabricKind fabric) {
  ScenarioConfig cfg = base_config(fabric);
  cfg.sparsify.enabled = true;
  cfg.sparsify.slem_bound = 1.0;
  cfg.sparsify.cost_budget = 0.75;
  return cfg;
}

TEST(RuntimeCheckpointTest, SparsifiedSyncRoundTripsBitwise) {
  const ScenarioConfig cfg = sparsified_config(runtime::FabricKind::kSync);
  // Guard the leg's premise: this scenario must actually prune links.
  const Scenario probe(cfg);
  ASSERT_GT(probe.run(Scheme::kSnap).iterations.back().links_pruned, 0u);
  expect_checkpoint_round_trip(cfg, Scheme::kSnap, "snap-sparse-sync");
}

TEST(RuntimeCheckpointTest, SparsifiedGossipRoundTripsBitwise) {
  expect_checkpoint_round_trip(
      sparsified_config(runtime::FabricKind::kGossip), Scheme::kSnap,
      "snap-sparse-gossip");
}

TEST(RuntimeCheckpointTest, ParameterServerRoundTripsBitwise) {
  expect_checkpoint_round_trip(base_config(runtime::FabricKind::kSync),
                               Scheme::kPs, "ps-sync");
}

TEST(RuntimeCheckpointTest, MidChurnCheckpointCarriesMembershipEpoch) {
  // Node 8 (latent) joins at round 4, so the round-6 checkpoint is
  // written with membership epoch ≥ 1 and an already-grown topology.
  // Resume must replay the injector to the same epoch and continue
  // bitwise — including the re-projected mixing matrices.
  ScenarioConfig cfg = base_config(runtime::FabricKind::kSync);
  cfg.latent_joiners = 1;
  cfg.faults.scheduled_joins.push_back({8, 4});

  const fs::path path =
      fs::temp_directory_path() /
      ("snap-ckpt-churn-" + std::to_string(::getpid()) + ".ckpt");
  fs::remove(path);

  ScenarioConfig first = cfg;
  first.convergence.min_iterations = 6;
  first.convergence.max_iterations = 6;
  first.checkpoint.path = path.string();
  first.checkpoint.every = 3;
  const Scenario half(first);
  half.run(Scheme::kSnap);
  const auto blob = runtime::load_run_checkpoint(path.string());
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(blob->round, 6u);
  EXPECT_GE(blob->membership_epoch, 1u) << "join did not land pre-blob";
  fs::remove(path);

  expect_checkpoint_round_trip(cfg, Scheme::kSnap, "snap-churn");
}

TEST(RuntimeCheckpointTest, CodecRejectsCorruptionAndTruncation) {
  runtime::RunCheckpoint ckpt;
  ckpt.round = 4;
  ckpt.sim_seconds = 1.5;
  ckpt.membership_epoch = 1;
  ckpt.alive = {1, 0, 1};
  ckpt.iterations.resize(4);
  ckpt.iterations[2].train_loss = 0.25;
  ckpt.total_bytes = 1234;
  ckpt.wire_state = {std::byte{0xab}, std::byte{0xcd}};
  ckpt.algorithm_state = {std::byte{0x01}, std::byte{0x02},
                          std::byte{0x03}};

  const std::vector<std::byte> bytes = runtime::encode_run_checkpoint(ckpt);
  ASSERT_TRUE(runtime::decode_run_checkpoint(bytes).has_value());

  // Any single flipped byte must fail the checksum trailer.
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<std::byte> flipped = bytes;
    flipped[i] ^= std::byte{0x40};
    EXPECT_FALSE(runtime::decode_run_checkpoint(flipped).has_value())
        << "flip at byte " << i << " was accepted";
  }
  // Every truncation must be rejected, not partially applied.
  for (std::size_t len = 0; len < bytes.size(); len += 5) {
    EXPECT_FALSE(
        runtime::decode_run_checkpoint(
            std::span<const std::byte>(bytes.data(), len))
            .has_value())
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(RuntimeCheckpointTest, CodecRoundTripsEveryStatsColumn) {
  // A distinct non-default value in every table column of every
  // iteration: a column the codec skipped or swapped would not survive.
  runtime::RunCheckpoint ckpt;
  ckpt.round = 2;
  ckpt.iterations.resize(2);
  std::uint64_t next = 1;
  for (core::IterationStats& it : ckpt.iterations) {
    core::for_each_stat_column([&](const auto& column) {
      auto& field = it.*column.member;
      using T = std::remove_reference_t<decltype(field)>;
      if constexpr (std::is_same_v<T, bool>) {
        field = true;
      } else if constexpr (std::is_same_v<T, double>) {
        field = static_cast<double>(next++) + 0.25;
      } else {
        field = next++;
      }
    });
  }
  const std::vector<std::byte> bytes = runtime::encode_run_checkpoint(ckpt);
  const std::optional<runtime::RunCheckpoint> decoded =
      runtime::decode_run_checkpoint(bytes);
  ASSERT_TRUE(decoded.has_value());
  core::TrainResult written;
  written.iterations = ckpt.iterations;
  core::TrainResult read;
  read.iterations = decoded->iterations;
  expect_bitwise_equal(read, written);

  // The v2 record layout: 25 eight-byte columns and one u8 bool.
  runtime::RunCheckpoint shorter = ckpt;
  shorter.iterations.pop_back();
  EXPECT_EQ(bytes.size() - runtime::encode_run_checkpoint(shorter).size(),
            201u);
}

TEST(RuntimeCheckpointTest, DecoderRejectsWrappingIterationCount) {
  // 92233720368547759 × 200 wraps u64 to 184, so a multiplied-out bound
  // accepts this count against the 288 bytes that follow it and
  // reserve() throws. An untrusted blob must come back as nullopt (a
  // resume then cold-replays) rather than kill the shard. The blob is a
  // stub sealed by the codec with only its iteration count (and the
  // checksum) patched, so the magic, the version and every field before
  // the count are the current format's.
  runtime::RunCheckpoint stub;
  stub.algorithm_state.resize(256);
  const std::vector<std::byte> sealed = runtime::encode_run_checkpoint(stub);
  ASSERT_TRUE(runtime::decode_run_checkpoint(sealed).has_value());
  // The count's offset: where a one-iteration stub first differs.
  runtime::RunCheckpoint one = stub;
  one.iterations.resize(1);
  const std::vector<std::byte> longer = runtime::encode_run_checkpoint(one);
  const auto differs =
      std::mismatch(sealed.begin(), sealed.end(), longer.begin()).first;
  const std::size_t at =
      static_cast<std::size_t>(differs - sealed.begin()) -
      (std::endian::native == std::endian::little ? 0 : 7);

  std::vector<std::byte> blob = sealed;
  const std::uint64_t count = 92233720368547759ULL;
  std::memcpy(blob.data() + at, &count, sizeof count);
  const std::uint64_t sum =
      ml::fnv1a(std::span<const std::byte>(blob).first(blob.size() - 8));
  std::memcpy(blob.data() + blob.size() - 8, &sum, sizeof sum);

  std::optional<runtime::RunCheckpoint> decoded;
  EXPECT_NO_THROW(decoded = runtime::decode_run_checkpoint(blob));
  EXPECT_FALSE(decoded.has_value());
}

TEST(RuntimeCheckpointTest, DgdSaveLoadContinuesBitwise) {
  common::Rng rng(11);
  const auto graph = topology::make_ring(5);
  const linalg::Matrix w = consensus::max_degree_weights(graph);
  std::vector<linalg::Vector> init;
  std::vector<linalg::Vector> centers;
  for (std::size_t i = 0; i < 5; ++i) {
    linalg::Vector x(3);
    linalg::Vector c(3);
    for (std::size_t d = 0; d < 3; ++d) {
      x[d] = rng.normal(0.0, 1.0);
      c[d] = rng.normal(0.0, 2.0);
    }
    init.push_back(std::move(x));
    centers.push_back(std::move(c));
  }
  const auto gradient = [centers](std::size_t node,
                                  const linalg::Vector& x) {
    linalg::Vector g = x;
    g -= centers[node];
    return g;
  };

  oracle::DgdIteration original(w, init, 0.1, gradient);
  for (int i = 0; i < 4; ++i) original.step();

  common::ByteWriter writer;
  original.save(writer);
  const std::vector<std::byte> blob = writer.take();

  oracle::DgdIteration restored(w, init, 0.1, gradient);
  common::ByteReader reader(blob);
  ASSERT_TRUE(restored.load(reader));
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(restored.iteration(), original.iteration());

  for (int i = 0; i < 4; ++i) {
    original.step();
    restored.step();
  }
  for (std::size_t node = 0; node < 5; ++node) {
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(bits_of(restored.params(node)[d]),
                bits_of(original.params(node)[d]))
          << "node " << node << " dim " << d;
    }
  }
}

TEST(RuntimeCheckpointTest, DgdLoadRejectsShapeMismatchAndTruncation) {
  const auto graph = topology::make_ring(4);
  const linalg::Matrix w = consensus::max_degree_weights(graph);
  const auto gradient = [](std::size_t, const linalg::Vector& x) {
    return x;
  };
  oracle::DgdIteration four(
      w, std::vector<linalg::Vector>(4, linalg::Vector(2)), 0.1, gradient);

  common::ByteWriter writer;
  four.save(writer);
  const std::vector<std::byte> blob = writer.take();

  // Wrong node count.
  const auto graph3 = topology::make_ring(3);
  oracle::DgdIteration three(consensus::max_degree_weights(graph3),
                           std::vector<linalg::Vector>(3, linalg::Vector(2)),
                           0.1, gradient);
  common::ByteReader mismatched(blob);
  EXPECT_FALSE(three.load(mismatched));

  // Truncated payload.
  oracle::DgdIteration target(
      w, std::vector<linalg::Vector>(4, linalg::Vector(2)), 0.1, gradient);
  common::ByteReader truncated(
      std::span<const std::byte>(blob.data(), blob.size() / 2));
  EXPECT_FALSE(target.load(truncated));
}

// Out-of-range ids in a checkpoint's SNAP algorithm blob. The blob
// is checksummed as a whole, so these model a writer bug or a blob
// patched and re-sealed: a backlog destination or prev_links endpoint
// >= n, or a backlog parameter index >= the model size, must refuse the
// resume instead of indexing past the trainer's tables.
std::uint64_t u64_at(const std::vector<std::byte>& blob, std::size_t at) {
  std::uint64_t value = 0;
  std::memcpy(&value, blob.data() + at, sizeof value);
  return value;
}

/// Offsets inside a fault-free, unsparsified SNAP gossip blob, whose
/// tail is: alive[n] u8 | per-node backlogs | rounds[n] u64 | restarted
/// u8 | prev_links count u64 + (u, v) u64 pairs. Each node's backlog
/// section is a u64 link count, then per link a u64 destination, a u64
/// entry count and (u32 index, f64 value) entries. The node images in
/// front have a data-dependent length, so the sections are located by
/// structure from the end.
struct SnapBlobLayout {
  std::size_t first_link = 0;   ///< first backlog's destination id
  std::size_t first_index = 0;  ///< that backlog's first parameter index
  std::size_t first_prev = 0;   ///< prev_links[0].u
};

std::optional<SnapBlobLayout> locate_tail(const std::vector<std::byte>& blob,
                                          std::size_t n, std::size_t dim,
                                          std::size_t round) {
  const std::size_t size = blob.size();
  SnapBlobLayout layout;
  std::size_t backlog_end = 0;
  bool found = false;
  for (std::size_t c = 1; 16 * c + 9 + 8 * n <= size && !found; ++c) {
    const std::size_t count_at = size - 16 * c - 8;
    if (u64_at(blob, count_at) != c) continue;
    const std::size_t rounds_at = count_at - 1 - 8 * n;
    bool rounds_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      rounds_ok = rounds_ok && u64_at(blob, rounds_at + 8 * i) == round;
    }
    if (!rounds_ok) continue;
    layout.first_prev = count_at + 8;
    backlog_end = rounds_at;
    found = true;
  }
  if (!found) return std::nullopt;
  for (std::size_t start = backlog_end; start >= n; --start) {
    bool alive_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      alive_ok = alive_ok && blob[start - n + i] == std::byte{1};
    }
    if (!alive_ok) continue;
    std::size_t at = start;
    std::optional<std::size_t> first_link;
    std::optional<std::size_t> first_index;
    bool parsed = true;
    for (std::size_t i = 0; i < n && parsed; ++i) {
      if (at + 8 > backlog_end) {
        parsed = false;
        break;
      }
      const std::uint64_t links = u64_at(blob, at);
      at += 8;
      parsed = links <= n;
      for (std::uint64_t k = 0; k < links && parsed; ++k) {
        if (at + 16 > backlog_end) {
          parsed = false;
          break;
        }
        const std::uint64_t entries = u64_at(blob, at + 8);
        parsed = u64_at(blob, at) < n && entries <= dim &&
                 at + 16 + 12 * entries <= backlog_end;
        if (!first_link) first_link = at;
        if (entries > 0 && !first_index) first_index = at + 16;
        at += 16 + 12 * entries;
      }
    }
    if (parsed && at == backlog_end && first_link && first_index) {
      layout.first_link = *first_link;
      layout.first_index = *first_index;
      return layout;
    }
  }
  return std::nullopt;
}

TEST(RuntimeCheckpointTest, SnapLoadRejectsOutOfRangeIds) {
  ScenarioConfig cfg = base_config(runtime::FabricKind::kGossip);
  const fs::path path =
      fs::temp_directory_path() /
      ("snap-ckpt-ids-" + std::to_string(::getpid()) + ".ckpt");
  fs::remove(path);
  ScenarioConfig first = cfg;
  first.convergence.min_iterations = 6;
  first.convergence.max_iterations = 6;
  first.checkpoint.path = path.string();
  first.checkpoint.every = 3;
  Scenario(first).run(Scheme::kSnap);
  const std::optional<runtime::RunCheckpoint> saved =
      runtime::load_run_checkpoint(path.string());
  ASSERT_TRUE(saved.has_value());
  ASSERT_EQ(saved->round, 6u);

  const std::size_t n = cfg.nodes;
  constexpr std::size_t kSvmParams = 25;
  const std::optional<SnapBlobLayout> layout =
      locate_tail(saved->algorithm_state, n, kSvmParams, 6);
  ASSERT_TRUE(layout.has_value())
      << "premise: the gossip blob must carry a pending backlog";

  ScenarioConfig resume = cfg;
  resume.checkpoint.path = path.string();
  resume.checkpoint.every = 3;
  resume.checkpoint.resume = true;
  // The unpatched blob resumes; each patched one is refused.
  EXPECT_NO_THROW(Scenario(resume).run(Scheme::kSnap));

  const auto patched_resume_throws = [&](std::size_t at, std::size_t width,
                                         std::uint64_t value) {
    runtime::RunCheckpoint patched = *saved;
    std::memcpy(patched.algorithm_state.data() + at, &value, width);
    EXPECT_TRUE(runtime::save_run_checkpoint(path.string(), patched));
    const Scenario scenario(resume);
    bool refused = false;
    try {
      scenario.run(Scheme::kSnap);
    } catch (const common::ContractViolation& e) {
      refused = std::string(e.what()).find("algorithm blob") !=
                std::string::npos;
    }
    return refused;
  };
  EXPECT_TRUE(patched_resume_throws(layout->first_link, 8, n))
      << "backlog destination id >= n accepted";
  EXPECT_TRUE(patched_resume_throws(layout->first_index, 4, kSvmParams))
      << "backlog parameter index >= total_params accepted";
  EXPECT_TRUE(patched_resume_throws(layout->first_prev, 8, n))
      << "prev_links endpoint >= n accepted";
  // The blob opens with node 0's neighbor list (u64 count, u64 ids,
  // ascending): raising the last id to n keeps it ascending.
  const std::uint64_t degree0 = u64_at(saved->algorithm_state, 0);
  ASSERT_GT(degree0, 0u);
  EXPECT_TRUE(patched_resume_throws(8 * degree0, 8, n))
      << "node neighbor id >= n accepted";
  fs::remove(path);
}

// A pruned-link key in a sparsified blob must name a link both restored
// neighbor rows hold: an endpoint >= n, a self-link, or a pair that is
// no topology link refuses the resume, like any out-of-range id.
TEST(RuntimeCheckpointTest, SnapLoadRejectsForeignPrunedLink) {
  const ScenarioConfig cfg = sparsified_config(runtime::FabricKind::kSync);
  const fs::path path =
      fs::temp_directory_path() /
      ("snap-ckpt-pruned-" + std::to_string(::getpid()) + ".ckpt");
  fs::remove(path);
  ScenarioConfig first = cfg;
  first.convergence.min_iterations = 6;
  first.convergence.max_iterations = 6;
  first.checkpoint.path = path.string();
  first.checkpoint.every = 3;
  Scenario(first).run(Scheme::kSnap);
  const std::optional<runtime::RunCheckpoint> saved =
      runtime::load_run_checkpoint(path.string());
  ASSERT_TRUE(saved.has_value());

  // The sparsified blob ends with the u64 key count, the sorted u64
  // keys, links_pruned u64, effective_edges u64 and slem_after f64.
  const std::vector<std::byte>& blob = saved->algorithm_state;
  const std::uint64_t pruned = u64_at(blob, blob.size() - 24);
  ASSERT_GT(pruned, 0u) << "premise: the sparsifier must prune links";
  const std::size_t first_key = blob.size() - 24 - 8 * pruned;
  ASSERT_EQ(u64_at(blob, first_key - 8), pruned);

  ScenarioConfig resume = cfg;
  resume.checkpoint.path = path.string();
  resume.checkpoint.every = 3;
  resume.checkpoint.resume = true;
  const Scenario scenario(resume);
  EXPECT_NO_THROW(scenario.run(Scheme::kSnap));

  const auto refused = [&](std::uint64_t hi, std::uint64_t lo) {
    runtime::RunCheckpoint patched = *saved;
    const std::uint64_t key = (hi << 32) | lo;
    std::memcpy(patched.algorithm_state.data() + first_key, &key, 8);
    // Re-sealed through encode_run_checkpoint: the checksum holds, only
    // the key lies.
    EXPECT_TRUE(runtime::save_run_checkpoint(path.string(), patched));
    try {
      scenario.run(Scheme::kSnap);
    } catch (const common::ContractViolation& e) {
      return std::string(e.what()).find("algorithm blob") !=
             std::string::npos;
    }
    return false;
  };
  const std::uint64_t n = scenario.graph().node_count();
  EXPECT_TRUE(refused(n, 0)) << "pruned-link endpoint >= n accepted";
  EXPECT_TRUE(refused(1, 1)) << "pruned self-link accepted";
  topology::NodeId u = 1;
  topology::NodeId v = 0;
  while (scenario.graph().has_edge(u, v)) {
    if (++v == u) {
      ++u;
      v = 0;
    }
  }
  ASSERT_LT(u, n) << "premise: the topology must miss some link";
  EXPECT_TRUE(refused(u, v)) << "pruned link outside the rows accepted";
  fs::remove(path);
}

TEST(RuntimeCheckpointTest, BoundedBackoffSaturatesAtCap) {
  runtime::FaultRecoveryConfig recovery;
  recovery.retry_backoff_s = 0.1;
  recovery.max_backoff_s = 5.0;

  // Plain doubling below the cap.
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 0), 0.1);
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 1), 0.2);
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 5), 3.2);
  // At and past the crossover the cap wins.
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 6), 5.0);
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 63), 5.0);
  // Attempts beyond the 2^63 shift guard must stay finite and capped —
  // this is the overflow the satellite fixes (1 << attempt is UB at 64).
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 64), 5.0);
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 100000), 5.0);

  // Degenerate knobs: non-positive base never waits; a base already at
  // or above the cap pins to the cap; a non-positive cap falls back to
  // the 5 s default.
  recovery.retry_backoff_s = 0.0;
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 10), 0.0);
  recovery.retry_backoff_s = 9.0;
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 0), 5.0);
  recovery.retry_backoff_s = 0.1;
  recovery.max_backoff_s = 0.0;
  EXPECT_DOUBLE_EQ(net::bounded_backoff(recovery, 63), 5.0);
}

}  // namespace
}  // namespace snap::experiments
