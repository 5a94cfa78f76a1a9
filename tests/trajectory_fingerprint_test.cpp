// Cross-version trajectory fingerprints. Every other bitwise suite
// compares two runs of the same build (threads, transports, resume), so
// a change that alters the frames consistently everywhere still passes
// them. These constants were recorded before the SNAP transmit path was
// rewritten (shared per-node frames, dense per-link backlogs) and pin
// the trajectory itself: per-round train loss bits, charged bytes,
// dropped frames and STATE_SYNC bytes for small seeded runs that
// exercise every backlog path — link bursts (merge while silent, drain
// on recovery), gossip duty cycling with crashes, warm-start joins
// (full-vector priming) and partitions (heal clears), sparsified links,
// paced async, and a checkpoint resume (backlog save/load). Two more
// pin SNAP's one synchronized EXTRA restart (every APE controller below
// ε), straight through and across a checkpoint written on the restart
// round itself.
//
// A deliberate trajectory change must re-record these constants and say
// why in the change log; an accidental one fails here.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/snap_node.hpp"
#include "experiments/scenario.hpp"
#include "runtime/fabric.hpp"

namespace snap::experiments {
namespace {

namespace fs = std::filesystem;

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

/// FNV-1a over the per-round words, least significant byte first.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const core::TrainResult& result) {
  Fnv1a h;
  h.add(result.iterations.size());
  for (const auto& it : result.iterations) {
    h.add(bits(it.train_loss));
    h.add(it.bytes);
    h.add(it.frames_dropped);
    h.add(it.state_sync_bytes);
  }
  return h.value();
}

ScenarioConfig base(runtime::FabricKind fabric, std::size_t rounds) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kCreditSvm;
  cfg.nodes = 12;
  cfg.train_samples = 600;
  cfg.test_samples = 100;
  cfg.seed = 11;
  cfg.fabric = fabric;
  cfg.convergence.min_iterations = rounds;
  cfg.convergence.max_iterations = rounds;
  return cfg;
}

// SNAP never posts onto a down link (the frame stays in the backlog), so
// the premise for the backlog slow path is link-down rounds, not drops.
std::uint64_t sum_links_down(const core::TrainResult& result) {
  std::uint64_t total = 0;
  for (const auto& it : result.iterations) total += it.links_down;
  return total;
}

std::uint64_t sum_state_sync(const core::TrainResult& result) {
  std::uint64_t total = 0;
  for (const auto& it : result.iterations) total += it.state_sync_bytes;
  return total;
}

// Sync APE over Gilbert–Elliott link bursts: silent links merge into
// their backlog and drain one catch-up frame when the burst ends.
ScenarioConfig sync_bursts() {
  ScenarioConfig cfg = base(runtime::FabricKind::kSync, 40);
  cfg.faults.link_enter_burst = 0.08;
  cfg.faults.link_exit_burst = 0.3;
  return cfg;
}

// Gossip matching under crashes/restarts, warm-start joins and random
// partitions: non-activated links accumulate, joins prime full-vector
// backlogs and send STATE_SYNC, heals clear backlogs.
ScenarioConfig gossip_churn() {
  ScenarioConfig cfg = base(runtime::FabricKind::kGossip, 60);
  cfg.nodes = 14;
  cfg.latent_joiners = 3;
  cfg.faults.crash_probability = 0.01;
  cfg.faults.restart_probability = 0.2;
  cfg.faults.join_probability = 0.05;
  cfg.faults.partition_probability = 0.03;
  cfg.faults.partition_duration = 5;
  cfg.faults.partition_confirm_rounds = 2;
  cfg.threads = 2;
  return cfg;
}

TEST(TrajectoryFingerprintTest, SyncApeWithLinkBursts) {
  const Scenario scenario(sync_bursts());
  const core::TrainResult result = scenario.run(Scheme::kSnap);
  ASSERT_GT(sum_links_down(result), 0u) << "premise: bursts must cut links";
  EXPECT_EQ(fingerprint(result), 0x82e1620a1a62d09aULL);
}

TEST(TrajectoryFingerprintTest, GossipChurnJoinsAndPartitions) {
  const Scenario scenario(gossip_churn());
  const core::TrainResult result = scenario.run(Scheme::kSnap);
  ASSERT_GT(sum_state_sync(result), 0u)
      << "premise: joins or heals must send STATE_SYNC";
  std::size_t max_components = 0;
  for (const auto& it : result.iterations) {
    max_components = std::max(max_components, it.components);
  }
  ASSERT_GT(max_components, 1u) << "premise: the run must partition";
  EXPECT_EQ(fingerprint(result), 0x9d1b0dc51b1f716fULL);
}

TEST(TrajectoryFingerprintTest, SyncSparsified) {
  ScenarioConfig cfg = base(runtime::FabricKind::kSync, 30);
  cfg.average_degree = 4.0;
  cfg.sparsify.enabled = true;
  cfg.sparsify.slem_bound = 1.0;
  cfg.sparsify.cost_budget = 0.75;
  const Scenario scenario(cfg);
  const core::TrainResult result = scenario.run(Scheme::kSnap);
  ASSERT_GT(result.iterations.back().links_pruned, 0u)
      << "premise: the sparsifier must prune links";
  EXPECT_EQ(fingerprint(result), 0x65575b672c032fceULL);
}

TEST(TrajectoryFingerprintTest, SyncSparsifiedWithLinkBursts) {
  // Bursts on pruned links stay out of links_down; bursts on kept links
  // still merge into their backlogs.
  ScenarioConfig cfg = sync_bursts();
  cfg.average_degree = 4.0;
  cfg.sparsify.enabled = true;
  cfg.sparsify.slem_bound = 1.0;
  cfg.sparsify.cost_budget = 0.75;
  const Scenario scenario(cfg);
  const core::TrainResult result = scenario.run(Scheme::kSnap);
  ASSERT_GT(result.iterations.back().links_pruned, 0u)
      << "premise: the sparsifier must prune links";
  ASSERT_GT(sum_links_down(result), 0u) << "premise: bursts must cut links";
  EXPECT_EQ(fingerprint(result), 0xcb69c024b8f3e511ULL);
  // links_down is not in the fingerprint; pin the pruned-link exclusion.
  EXPECT_EQ(sum_links_down(result), 165u);
}

TEST(TrajectoryFingerprintTest, PacedAsyncWithLinkFailures) {
  ScenarioConfig cfg = base(runtime::FabricKind::kAsync, 30);
  cfg.link_failure_probability = 0.15;
  const Scenario scenario(cfg);
  const core::TrainResult result = scenario.run(Scheme::kSnap);
  EXPECT_EQ(fingerprint(result), 0x47a3efd1da84e34aULL);
}

TEST(TrajectoryFingerprintTest, MlpSyncWithLinkBursts) {
  // A 23,860-parameter model: backlogs span many bitmap words.
  ScenarioConfig cfg = base(runtime::FabricKind::kSync, 8);
  cfg.workload = Workload::kMnistMlp;
  cfg.nodes = 6;
  cfg.train_samples = 120;
  cfg.test_samples = 30;
  cfg.ape_warmup_iterations = 2;
  cfg.faults.link_enter_burst = 0.2;
  cfg.faults.link_exit_burst = 0.4;
  const Scenario scenario(cfg);
  const core::TrainResult result = scenario.run(Scheme::kSnap);
  ASSERT_GT(sum_links_down(result), 0u) << "premise: bursts must cut links";
  EXPECT_EQ(fingerprint(result), 0x6cb26e927a8f72f3ULL);
}

TEST(TrajectoryFingerprintTest, GossipCheckpointResume) {
  // Stop the churned gossip run mid-way with a checkpoint, resume it in
  // a fresh scenario: the stitched run carries the saved backlogs.
  const fs::path path =
      fs::temp_directory_path() /
      ("snap-fingerprint-" + std::to_string(::getpid()) + ".ckpt");
  fs::remove(path);
  ScenarioConfig first = gossip_churn();
  first.convergence.min_iterations = 30;
  first.convergence.max_iterations = 30;
  first.checkpoint.path = path.string();
  first.checkpoint.every = 15;
  Scenario(first).run(Scheme::kSnap);
  ASSERT_TRUE(fs::exists(path)) << "no checkpoint written";

  ScenarioConfig second = gossip_churn();
  second.checkpoint.path = path.string();
  second.checkpoint.every = 15;
  second.checkpoint.resume = true;
  const core::TrainResult resumed = Scenario(second).run(Scheme::kSnap);
  fs::remove(path);
  // Resume is bitwise the uninterrupted run, so both pins are one value.
  EXPECT_EQ(fingerprint(resumed), 0x9d1b0dc51b1f716fULL);
}

// Long enough for every APE controller to decay below ε: the one
// synchronized restart fires at round kApeRestartRound.
constexpr std::size_t kApeRestartRound = 540;
constexpr std::uint64_t kApeRestartFingerprint = 0x137484e757a91a24ULL;

ScenarioConfig ape_restart() { return base(runtime::FabricKind::kSync, 560); }

TEST(TrajectoryFingerprintTest, SyncApeThroughRestart) {
  const ScenarioConfig cfg = ape_restart();
  Scenario scenario(cfg);
  std::size_t restart_round = 0;
  scenario.set_snap_observer(
      [&](std::size_t round, const std::vector<core::SnapNode>& nodes) {
        if (restart_round == 0 && round > cfg.ape_warmup_iterations &&
            nodes[0].iteration() == 0) {
          restart_round = round;
        }
      });
  const core::TrainResult result = scenario.run(Scheme::kSnap);
  ASSERT_GT(restart_round, 0u) << "premise: the APE restart must fire";
  EXPECT_EQ(restart_round, kApeRestartRound);
  EXPECT_EQ(fingerprint(result), kApeRestartFingerprint);
}

TEST(TrajectoryFingerprintTest, SyncApeRestartCheckpointResume) {
  // The checkpoint is written on the restart round, so the blob must
  // already carry the restarted recursion.
  const fs::path path =
      fs::temp_directory_path() /
      ("snap-restart-" + std::to_string(::getpid()) + ".ckpt");
  fs::remove(path);
  ScenarioConfig first = ape_restart();
  first.convergence.min_iterations = kApeRestartRound;
  first.convergence.max_iterations = kApeRestartRound;
  first.checkpoint.path = path.string();
  first.checkpoint.every = kApeRestartRound / 2;
  Scenario(first).run(Scheme::kSnap);
  ASSERT_TRUE(fs::exists(path)) << "no checkpoint written";

  ScenarioConfig second = ape_restart();
  second.checkpoint.path = path.string();
  second.checkpoint.every = kApeRestartRound / 2;
  second.checkpoint.resume = true;
  const core::TrainResult resumed = Scenario(second).run(Scheme::kSnap);
  fs::remove(path);
  EXPECT_EQ(fingerprint(resumed), kApeRestartFingerprint);
}

}  // namespace
}  // namespace snap::experiments
