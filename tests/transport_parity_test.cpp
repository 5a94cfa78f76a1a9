// The oracle contract of the transport seam: for identical seeds, a
// multi-process socket run (UDS or TCP) must produce bitwise-identical
// training trajectories to the in-process simulator. Each backend test
// forks one process per shard, runs the full scenario in every child,
// and compares every per-iteration column and summary field of the
// result bit-for-bit against the sim oracle computed in the parent.
//
// The shard stats files double as the byte-parity probe: the OS-level
// payload bytes each shard put on the wire must equal the bytes the
// cost model charged for the same frames, frame for frame. They also
// count the SHARE records that carry owner-computed gradients and
// losses to the other shards, and a counting Model decorator checks
// that each shard runs the model only for the nodes it owns.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "consensus/sparse_weight_matrix.hpp"
#include "core/snap_trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic_credit.hpp"
#include "experiments/scenario.hpp"
#include "ml/linear_svm.hpp"
#include "net/fault_injector.hpp"
#include "net/transport.hpp"
#include "support/bitwise_result.hpp"
#include "topology/generators.hpp"
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

constexpr std::size_t kShards = 2;

/// Nodes shard `shard` owns (contiguous blocks, net::shard_of_node).
std::size_t owned_nodes(std::size_t shard, std::size_t nodes) {
  std::size_t owned = 0;
  for (topology::NodeId i = 0; i < nodes; ++i) {
    owned += net::shard_of_node(i, nodes, kShards) == shard ? 1 : 0;
  }
  return owned;
}

/// Forks `shards` worker processes, each running the scenario as one
/// shard over `kind`, then checks every shard's fingerprint against the
/// sim oracle and every shard's wire bytes against the charged bytes.
/// Without a tweak the run is fault-free, so the SHARE traffic is exact:
/// per round one gradient row and one loss per owned node to each peer,
/// plus the final loss.
void expect_parity(runtime::FabricKind fabric, net::TransportKind kind,
                   const ConfigTweak& tweak = nullptr,
                   const std::string& tag = "") {
  ScenarioConfig sim_cfg = base_config(fabric);
  if (tweak) tweak(sim_cfg);
  const Scenario sim(sim_cfg);
  const core::TrainResult oracle = sim.run(Scheme::kSnap);
  ASSERT_FALSE(oracle.iterations.empty());

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
      } catch (const std::exception& e) {
        std::cerr << "shard " << shard << ": " << e.what() << '\n';
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
    EXPECT_GE(stats.at("os_bytes_sent"),
              stats.at("payload_bytes_sent") + stats.at("share_bytes_sent"));
    if (!tweak) {
      const std::uint64_t rounds = oracle.iterations.size();
      const std::uint64_t rows =
          owned_nodes(shard, sim_cfg.nodes) * (kShards - 1);
      const std::uint64_t params = sim.model().param_count();
      EXPECT_EQ(stats.at("share_records_sent"), rows * (2 * rounds + 1));
      EXPECT_EQ(stats.at("share_bytes_sent"),
                rows * sizeof(double) * (rounds * params + rounds + 1));
    }
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

/// The paper's testbed model: owner-computed MLP gradients (23,860
/// doubles a row) must cross the wire bit for bit.
TEST(TransportParityTest, MlpSyncOverUdsMatchesSimBitwise) {
  expect_parity(runtime::FabricKind::kSync, net::TransportKind::kUds,
                [](ScenarioConfig& cfg) {
                  cfg.workload = Workload::kMnistMlp;
                  cfg.train_samples = 160;
                  cfg.test_samples = 40;
                  cfg.convergence.min_iterations = 5;
                  cfg.convergence.max_iterations = 5;
                },
                "mlp-");
}

/// Counts the model calls the trainer makes; results pass through
/// untouched, so the trajectory stays the plain model's.
class CountingModel final : public ml::Model {
 public:
  explicit CountingModel(const ml::Model& inner) : inner_(&inner) {}

  std::size_t param_count() const noexcept override {
    return inner_->param_count();
  }
  std::string name() const override { return inner_->name(); }
  double loss(const linalg::Vector& params,
              const data::Dataset& data) const override {
    ++loss_calls;
    return inner_->loss(params, data);
  }
  ml::LossGradient loss_gradient(const linalg::Vector& params,
                                 const data::Dataset& data) const override {
    ++gradient_calls;
    return inner_->loss_gradient(params, data);
  }
  double loss_gradient_into(const linalg::Vector& params,
                            const data::Dataset& data,
                            std::span<double> gradient) const override {
    ++gradient_calls;
    return inner_->loss_gradient_into(params, data, gradient);
  }
  std::size_t predict(const linalg::Vector& params,
                      std::span<const double> features) const override {
    return inner_->predict(params, features);
  }
  linalg::Vector initial_params(common::Rng& rng) const override {
    return inner_->initial_params(rng);
  }

  mutable std::atomic<std::uint64_t> gradient_calls{0};
  mutable std::atomic<std::uint64_t> loss_calls{0};

 private:
  const ml::Model* inner_;
};

struct CallCounts {
  std::uint64_t gradient = 0;
  std::uint64_t loss = 0;
};

/// One SnapTrainer run of the counting fixture (8-node credit SVM, node
/// 1 crashed for rounds 3..5) as `transport` describes it.
CallCounts counted_run(const net::TransportConfig& transport,
                       std::size_t rounds, const net::FaultPlan& plan) {
  common::Rng rng(11);
  common::Rng topo_rng = rng.fork("topology");
  const topology::Graph graph = topology::make_random_connected(8, 3.0,
                                                                topo_rng);
  data::SyntheticCreditConfig credit;
  credit.samples = 320;
  const data::Dataset pool = data::make_synthetic_credit(credit);
  common::Rng part_rng = rng.fork("partition");
  ml::LinearSvmConfig svm;
  svm.feature_dim = pool.feature_dim();
  const ml::LinearSvm inner(svm);
  const CountingModel model(inner);
  core::SnapTrainerConfig config;
  config.convergence.min_iterations = rounds;
  config.convergence.max_iterations = rounds;
  config.faults = plan;
  config.threads = 2;
  config.transport = transport;
  core::SnapTrainer trainer(
      graph, consensus::SparseWeightMatrix::metropolis_on_survivors(graph),
      model, data::partition_equal(pool, graph.node_count(), part_rng),
      config);
  trainer.train(pool);
  return {model.gradient_calls.load(), model.loss_calls.load()};
}

TEST(TransportParityTest, EachShardRunsTheModelOnlyForItsOwnNodes) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kRounds = 8;
  net::FaultPlan plan;
  plan.scheduled_crashes.push_back({/*node=*/1, /*crash_round=*/3,
                                    /*restart_round=*/6});
  const CallCounts sim = counted_run({}, kRounds, plan);

  // The owned live node-rounds, from the same seeded schedule: gradients
  // run on nodes up this round, losses on the confirmed membership
  // (every round's evaluate, plus the final one after the loop).
  std::vector<CallCounts> expected(kShards);
  common::Rng topo_rng = common::Rng(11).fork("topology");
  const topology::Graph graph =
      topology::make_random_connected(kNodes, 3.0, topo_rng);
  net::FaultInjector injector(graph, plan, common::Rng(1).fork("links"));
  for (std::size_t round = 1; round <= kRounds; ++round) {
    injector.ensure_round(round);
    for (topology::NodeId i = 0; i < kNodes; ++i) {
      CallCounts& owner = expected[net::shard_of_node(i, kNodes, kShards)];
      owner.gradient += injector.node_down(round, i) ? 0 : 1;
      const std::uint64_t member = injector.confirmed_down(round, i) ? 0 : 1;
      owner.loss += member * (round == kRounds ? 2 : 1);
    }
  }
  ASSERT_EQ(expected[0].gradient + expected[1].gradient, sim.gradient);
  ASSERT_EQ(expected[0].loss + expected[1].loss, sim.loss);
  ASSERT_LT(expected[0].gradient, kNodes / 2 * kRounds)
      << "the crash must land on shard 0's block";

  const fs::path dir = fs::temp_directory_path() /
                       ("snap-counts-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<pid_t> children;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      int status = 1;
      try {
        net::TransportConfig transport;
        transport.kind = net::TransportKind::kUds;
        transport.shards = kShards;
        transport.shard_id = shard;
        transport.rendezvous_dir = dir.string();
        const CallCounts counts = counted_run(transport, kRounds, plan);
        std::ofstream(dir / ("counts-" + std::to_string(shard)))
            << counts.gradient << ' ' << counts.loss << '\n';
        status = 0;
      } catch (const std::exception& e) {
        std::cerr << "shard " << shard << ": " << e.what() << '\n';
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
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    CallCounts counts;
    std::ifstream(dir / ("counts-" + std::to_string(shard))) >>
        counts.gradient >> counts.loss;
    EXPECT_EQ(counts.gradient, expected[shard].gradient) << "shard " << shard;
    EXPECT_EQ(counts.loss, expected[shard].loss) << "shard " << shard;
  }
  fs::remove_all(dir);
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
