// Robustness fuzzing for the checkpoint decoders. A checkpoint is read
// back from disk, so its bytes are untrusted input: a torn write, a
// writer bug or a patched file must come back as "no checkpoint" or as
// a refused resume (common::ContractViolation), never as a crash, an
// oversized allocation or any other exception.
//
// The envelope checksum rejects almost every random mutation before the
// inner decoders see it, so most cases here re-seal the mutated blob
// (recompute its FNV-1a trailer) to reach the field decoders behind it:
//   - decode_run_checkpoint and ml::decode_checkpoint on seeded random
//     bodies and on byte flips and truncations of real blobs;
//   - a sparsified gossip SNAP run resumed from seeded mutations of its
//     algorithm_state (the SnapScheme, SnapNode, APE and backlog
//     loaders).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "experiments/scenario.hpp"
#include "ml/checkpoint.hpp"
#include "runtime/run_checkpoint.hpp"

namespace snap::experiments {
namespace {

namespace fs = std::filesystem;

/// Recomputes the FNV-1a trailer, so the envelope accepts the blob.
void reseal(std::vector<std::byte>& blob) {
  if (blob.size() < 8) return;
  const std::uint64_t sum =
      ml::fnv1a(std::span<const std::byte>(blob).first(blob.size() - 8));
  std::memcpy(blob.data() + blob.size() - 8, &sum, sizeof sum);
}

/// `header` (magic + version) | `body_bytes` random bytes | trailer.
std::vector<std::byte> random_sealed(std::string_view magic,
                                     std::uint32_t version,
                                     std::size_t body_bytes,
                                     common::Rng& rng) {
  common::ByteWriter writer;
  writer.write_bytes(std::as_bytes(std::span(magic)));
  writer.write_u32(version);
  for (std::size_t i = 0; i < body_bytes; ++i) {
    writer.write_u8(static_cast<std::uint8_t>(rng.uniform_u64(256)));
  }
  writer.write_u64(0);
  std::vector<std::byte> blob = writer.take();
  reseal(blob);
  return blob;
}

/// A seeded mutation of `blob`: a few bit flips, an 8-byte overwrite
/// with a boundary value (a count or id a field decoder must refuse),
/// or a truncation.
std::vector<std::byte> mutate(std::vector<std::byte> blob,
                              common::Rng& rng) {
  if (blob.empty()) return blob;
  switch (rng.uniform_u64(3)) {
    case 0:
      for (std::uint64_t f = 1 + rng.uniform_u64(4); f > 0; --f) {
        const auto at = static_cast<std::size_t>(rng.uniform_u64(blob.size()));
        blob[at] ^= static_cast<std::byte>(1u << rng.uniform_u64(8));
      }
      break;
    case 1: {
      constexpr std::uint64_t kBoundary[] = {
          0, 1, 2, 7, 8, 9, 25, 1ULL << 32, 1ULL << 61, ~0ULL};
      const std::uint64_t value = kBoundary[rng.uniform_u64(10)];
      const auto at = static_cast<std::size_t>(rng.uniform_u64(blob.size()));
      const std::size_t width = std::min<std::size_t>(8, blob.size() - at);
      std::memcpy(blob.data() + at, &value, width);
      break;
    }
    default:
      blob.resize(static_cast<std::size_t>(rng.uniform_u64(blob.size())));
      break;
  }
  return blob;
}

/// Mutates the body of a sealed blob and re-seals it (a truncation
/// keeps the trailer slot, so it cuts the body, not the checksum).
std::vector<std::byte> mutate_sealed(const std::vector<std::byte>& blob,
                                     common::Rng& rng) {
  std::vector<std::byte> body(blob.begin(), blob.end() - 8);
  body = mutate(std::move(body), rng);
  body.resize(body.size() + 8);
  reseal(body);
  return body;
}

ScenarioConfig sparsified_gossip_config() {
  ScenarioConfig cfg;
  cfg.workload = Workload::kCreditSvm;
  cfg.nodes = 8;
  cfg.train_samples = 400;
  cfg.test_samples = 100;
  cfg.seed = 7;
  cfg.fabric = runtime::FabricKind::kGossip;
  cfg.sparsify.enabled = true;
  cfg.sparsify.slem_bound = 1.0;
  cfg.sparsify.cost_budget = 0.75;
  cfg.convergence.min_iterations = 12;
  cfg.convergence.max_iterations = 12;
  return cfg;
}

/// The round-6 checkpoint of sparsified_config's run, written to `path`.
runtime::RunCheckpoint write_real_checkpoint(const fs::path& path) {
  ScenarioConfig first = sparsified_gossip_config();
  first.convergence.min_iterations = 6;
  first.convergence.max_iterations = 6;
  first.checkpoint.path = path.string();
  first.checkpoint.every = 3;
  Scenario(first).run(Scheme::kSnap);
  std::optional<runtime::RunCheckpoint> saved =
      runtime::load_run_checkpoint(path.string());
  SNAP_REQUIRE(saved.has_value());
  return *saved;
}

fs::path temp_path(const std::string& tag) {
  return fs::temp_directory_path() /
         ("snap-ckpt-fuzz-" + tag + "-" + std::to_string(::getpid()) +
          ".ckpt");
}

/// A decoded checkpoint is well formed when it re-encodes to exactly
/// the bytes it came from in length: every field was read whole and
/// nothing was left over or invented.
void expect_run_decode_well_formed(const std::vector<std::byte>& blob) {
  const std::optional<runtime::RunCheckpoint> decoded =
      runtime::decode_run_checkpoint(blob);
  if (!decoded) return;
  EXPECT_EQ(runtime::encode_run_checkpoint(*decoded).size(), blob.size());
  EXPECT_LE(decoded->alive.size() + decoded->iterations.size() +
                decoded->wire_state.size() + decoded->algorithm_state.size(),
            blob.size());
}

void expect_model_decode_well_formed(const std::vector<std::byte>& blob) {
  const std::optional<ml::Checkpoint> decoded = ml::decode_checkpoint(blob);
  if (!decoded) return;
  EXPECT_EQ(ml::encode_checkpoint(*decoded).size(), blob.size());
  EXPECT_LE(decoded->params.size() * sizeof(double), blob.size());
}

TEST(CheckpointFuzzTest, RandomSealedBodiesDecodeOrRefuse) {
  common::Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    const auto body = static_cast<std::size_t>(rng.uniform_u64(160));
    std::vector<std::byte> raw(body);
    for (auto& b : raw) b = static_cast<std::byte>(rng.uniform_u64(256));
    expect_run_decode_well_formed(raw);
    expect_model_decode_well_formed(raw);
    expect_run_decode_well_formed(
        random_sealed(runtime::kRunCheckpointMagic,
                      runtime::kRunCheckpointVersion, body, rng));
    expect_model_decode_well_formed(random_sealed("SNAPCKPT", 1, body, rng));
  }
}

TEST(CheckpointFuzzTest, ResealedMutationsOfRealBlobsDecodeOrRefuse) {
  const fs::path path = temp_path("decode");
  const runtime::RunCheckpoint saved = write_real_checkpoint(path);
  fs::remove(path);
  const std::vector<std::byte> run_blob =
      runtime::encode_run_checkpoint(saved);
  ml::Checkpoint model;
  model.model_name = "linear-svm-24";
  model.params = linalg::Vector(25, 0.5);
  const std::vector<std::byte> model_blob = ml::encode_checkpoint(model);
  ASSERT_TRUE(runtime::decode_run_checkpoint(run_blob).has_value());
  ASSERT_TRUE(ml::decode_checkpoint(model_blob).has_value());

  common::Rng rng(99);
  for (int trial = 0; trial < 400; ++trial) {
    expect_run_decode_well_formed(mutate_sealed(run_blob, rng));
    expect_model_decode_well_formed(mutate_sealed(model_blob, rng));
  }
}

TEST(CheckpointFuzzTest, SnapResumesFromMutatedAlgorithmStateOrRefuses) {
  const fs::path path = temp_path("resume");
  const runtime::RunCheckpoint saved = write_real_checkpoint(path);
  ScenarioConfig resume = sparsified_gossip_config();
  resume.checkpoint.path = path.string();
  resume.checkpoint.every = 3;
  resume.checkpoint.resume = true;
  const Scenario scenario(resume);
  ASSERT_NO_THROW(scenario.run(Scheme::kSnap)) << "premise: intact resume";

  common::Rng rng(2020);
  int refused = 0;
  for (int trial = 0; trial < 64; ++trial) {
    runtime::RunCheckpoint patched = saved;
    patched.algorithm_state = mutate(saved.algorithm_state, rng);
    // save_run_checkpoint seals the outer blob: only the inner bytes lie.
    ASSERT_TRUE(runtime::save_run_checkpoint(path.string(), patched));
    try {
      scenario.run(Scheme::kSnap);
    } catch (const common::ContractViolation&) {
      ++refused;
    }
  }
  // Truncations and oversized counts must be among the refusals.
  EXPECT_GT(refused, 0);
  fs::remove(path);
}

}  // namespace
}  // namespace snap::experiments
