// The oracle contract of the transport seam: for identical seeds, a
// multi-process socket run (UDS or TCP) must produce bitwise-identical
// training trajectories to the in-process simulator. Each backend test
// forks one process per shard, runs the full scenario in every child,
// and compares every per-iteration column and summary field of the
// result bit-for-bit against the sim oracle computed in the parent.
//
// The shard stats files double as the byte-parity probe: the OS-level
// payload bytes each shard put on the wire must equal the bytes the
// cost model charged for the same frames, frame for frame.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "net/fault_injector.hpp"
#include "net/transport.hpp"
#include "support/bitwise_result.hpp"
#include "topology/graph.hpp"

namespace snap::experiments {
namespace {

namespace fs = std::filesystem;

using ConfigTweak = std::function<void(ScenarioConfig&)>;

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

void write_fingerprint(const fs::path& path,
                       const std::vector<std::uint64_t>& words) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof words[0]));
}

std::vector<std::uint64_t> read_fingerprint(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::uint64_t> words(raw.size() / sizeof(std::uint64_t));
  std::memcpy(words.data(), raw.data(), words.size() * sizeof words[0]);
  return words;
}

std::map<std::string, std::uint64_t> read_stats(const fs::path& path) {
  std::map<std::string, std::uint64_t> stats;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    stats[line.substr(0, eq)] = std::stoull(line.substr(eq + 1));
  }
  return stats;
}

/// Forks `shards` worker processes, each running the scenario as one
/// shard over `kind`, then checks every shard's fingerprint against the
/// sim oracle and every shard's wire bytes against the charged bytes.
void expect_parity(runtime::FabricKind fabric, net::TransportKind kind,
                   const ConfigTweak& tweak = nullptr,
                   const std::string& tag = "") {
  ScenarioConfig sim_cfg = base_config(fabric);
  if (tweak) tweak(sim_cfg);
  const Scenario sim(sim_cfg);
  const core::TrainResult oracle = sim.run(Scheme::kSnap);
  ASSERT_FALSE(oracle.iterations.empty());

  constexpr std::size_t kShards = 2;
  const fs::path dir =
      fs::temp_directory_path() /
      ("snap-parity-" + tag + std::string(net::transport_name(kind)) +
       "-" + std::to_string(fabric == runtime::FabricKind::kGossip) +
       "-" + std::to_string(::getpid()));
  fs::create_directories(dir);

  std::vector<pid_t> children;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: run the scenario as one shard. _exit (not exit) so the
      // forked copy never runs gtest teardown or static destructors.
      int status = 1;
      try {
        ScenarioConfig cfg = base_config(fabric);
        if (tweak) tweak(cfg);
        cfg.transport.kind = kind;
        cfg.transport.shards = kShards;
        cfg.transport.shard_id = shard;
        cfg.transport.rendezvous_dir = dir.string();
        const Scenario scenario(cfg);
        write_fingerprint(
            dir / ("result-" + std::to_string(shard)),
            snap::testing::result_words(scenario.run(Scheme::kSnap)));
        status = 0;
      } catch (...) {
      }
      ::_exit(status);
    }
    children.push_back(pid);
  }

  for (std::size_t shard = 0; shard < kShards; ++shard) {
    int status = 0;
    ASSERT_EQ(::waitpid(children[shard], &status, 0), children[shard]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "shard " << shard << " exited abnormally (status " << status
        << ")";
  }

  std::uint64_t total_frames = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    {
      SCOPED_TRACE("shard " + std::to_string(shard) + " vs the sim oracle");
      snap::testing::expect_words_equal(
          read_fingerprint(dir / ("result-" + std::to_string(shard))),
          oracle);
    }

    const auto stats =
        read_stats(dir / ("shard-" + std::to_string(shard) + ".stats"));
    ASSERT_TRUE(stats.contains("payload_bytes_sent"))
        << "shard " << shard << " wrote no stats file";
    // Per-frame byte parity: what went on the wire is what was charged.
    EXPECT_EQ(stats.at("payload_bytes_sent"),
              stats.at("charged_bytes_sent"));
    EXPECT_EQ(stats.at("mismatched_frames"), 0u);
    EXPECT_GE(stats.at("os_bytes_sent"), stats.at("payload_bytes_sent"));
    total_frames += stats.at("frames_sent");
  }
  // The split topology must actually exercise the wire.
  EXPECT_GT(total_frames, 0u);

  fs::remove_all(dir);
}

TEST(TransportParityTest, SyncFabricOverUdsMatchesSimBitwise) {
  expect_parity(runtime::FabricKind::kSync, net::TransportKind::kUds);
}

TEST(TransportParityTest, SyncFabricOverTcpMatchesSimBitwise) {
  expect_parity(runtime::FabricKind::kSync, net::TransportKind::kTcp);
}

TEST(TransportParityTest, GossipFabricOverUdsMatchesSimBitwise) {
  expect_parity(runtime::FabricKind::kGossip, net::TransportKind::kUds);
}

TEST(TransportParityTest, GossipFabricOverTcpMatchesSimBitwise) {
  expect_parity(runtime::FabricKind::kGossip, net::TransportKind::kTcp);
}

/// Scheduled bridge cut on a two-K4 barbell: rounds [4, 9) split the
/// run mid-flight, then it heals and merges well before round 12.
ConfigTweak partition_tweak() {
  return [](ScenarioConfig& cfg) {
    topology::Graph g(8);
    for (topology::NodeId u = 0; u < 4; ++u) {
      for (topology::NodeId v = u + 1; v < 4; ++v) g.add_edge(u, v);
    }
    for (topology::NodeId u = 4; u < 8; ++u) {
      for (topology::NodeId v = u + 1; v < 8; ++v) g.add_edge(u, v);
    }
    g.add_edge(3, 4);
    cfg.custom_topology = std::move(g);
    net::PartitionEvent event;
    event.edges = {{3, 4}};
    event.start_round = 4;
    event.heal_round = 9;
    cfg.faults.scheduled_partitions.push_back(event);
    cfg.faults.partition_confirm_rounds = 1;
  };
}

/// Topology sparsification on: the pruned timeline (loss, bytes, and
/// the links_pruned / effective_edges / slem_after_prune telemetry
/// columns) must replay bitwise across UDS shard processes against the
/// sim oracle.
ConfigTweak sparsify_tweak() {
  return [](ScenarioConfig& cfg) {
    cfg.sparsify.enabled = true;
    cfg.sparsify.slem_bound = 1.0;
    cfg.sparsify.cost_budget = 0.75;
  };
}

TEST(TransportParityTest, SparsifiedSyncOverUdsMatchesSimBitwise) {
  // Guard the leg's premise: this scenario must actually prune links,
  // or the sparsifier columns are all trivially zero.
  ScenarioConfig probe_cfg = base_config(runtime::FabricKind::kSync);
  sparsify_tweak()(probe_cfg);
  const Scenario probe(probe_cfg);
  ASSERT_GT(probe.run(Scheme::kSnap).iterations.back().links_pruned, 0u);

  expect_parity(runtime::FabricKind::kSync, net::TransportKind::kUds,
                sparsify_tweak(), "sparse-");
}

TEST(TransportParityTest, SparsifiedGossipOverUdsMatchesSimBitwise) {
  expect_parity(runtime::FabricKind::kGossip, net::TransportKind::kUds,
                sparsify_tweak(), "sparse-");
}

TEST(TransportParityTest, PartitionScheduleOverUdsMatchesSimBitwise) {
  expect_parity(runtime::FabricKind::kSync, net::TransportKind::kUds,
                partition_tweak(), "split-");
}

TEST(TransportParityTest, PartitionScheduleOverTcpGossipMatchesSimBitwise) {
  expect_parity(runtime::FabricKind::kGossip, net::TransportKind::kTcp,
                partition_tweak(), "split-");
}

TEST(TransportParityTest, SingleShardSocketRunIsDegenerateButExact) {
  // shards=1 exercises the socket transport code path with an empty
  // mesh; still must match the oracle bitwise.
  const Scenario sim(base_config(runtime::FabricKind::kSync));
  ScenarioConfig cfg = base_config(runtime::FabricKind::kSync);
  cfg.transport.kind = net::TransportKind::kUds;
  cfg.transport.shards = 1;
  cfg.transport.shard_id = 0;
  const Scenario solo(cfg);
  snap::testing::expect_bitwise_equal(solo.run(Scheme::kSnap),
                                      sim.run(Scheme::kSnap));
}

}  // namespace
}  // namespace snap::experiments
