// Allocation budget of a steady-state SNAP round. The transmit path
// shares one frame per node-round across every live link and keeps its
// scratch (collect buffer, EXTRA output, mailbox inboxes) across rounds,
// and the model writes its gradient into a reused buffer, so a
// fault-free sync node-round allocates only the envelope vector the
// collect hook hands the fabric and a handful of per-round (not
// per-node) buffers amortized over the nodes.
// This binary replaces the global operator new to count allocations
// between two observer callbacks; per-link maps or per-neighbor frame
// copies coming back would multiply the count by the node degree.
//
// Built only without sanitizers: the ASan and TSan runtimes own the
// global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.hpp"
#include "consensus/sparse_weight_matrix.hpp"
#include "core/snap_trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic_credit.hpp"
#include "ml/linear_svm.hpp"
#include "topology/generators.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace snap::core {
namespace {

// Measured at 1.13 per node-round on this configuration: the envelope
// vector, and about 0.13 of per-round evaluate buffers spread over the
// 64 nodes; the gradient lands in a reused buffer
// (Model::loss_gradient_into). The map-backlog design this replaced (a
// std::map per directed link, a frame vector copied per neighbor,
// inboxes reallocated every flip) measured about 110. A per-link
// allocation on the fast path adds at least the degree (4) per
// node-round, and a per-node one adds 1, so neither can hide under this
// bound.
constexpr double kMaxAllocationsPerNodeRound = 1.5;

// Allocations per node-round between the observer callbacks of rounds
// kFirst and kLast of a 64-node credit-SVM run under `config`.
double allocations_per_node_round(SnapTrainerConfig config) {
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kFirst = 10;
  constexpr std::size_t kLast = 20;

  common::Rng rng(5);
  common::Rng topo_rng = rng.fork("topology");
  const topology::Graph graph =
      topology::make_random_connected(kNodes, 4.0, topo_rng);
  data::SyntheticCreditConfig credit;
  credit.samples = 4 * kNodes;
  const data::Dataset pool = data::make_synthetic_credit(credit);
  common::Rng part_rng = rng.fork("partition");
  std::vector<data::Dataset> shards =
      data::partition_equal(pool, kNodes, part_rng);
  ml::LinearSvmConfig svm;
  svm.feature_dim = pool.feature_dim();
  const ml::LinearSvm model(svm);

  config.filter = FilterMode::kApe;
  config.convergence.min_iterations = kLast + 2;
  config.convergence.max_iterations = kLast + 2;
  config.eval.every = kLast + 2;
  config.threads = 1;
  SnapTrainer trainer(graph,
                      consensus::SparseWeightMatrix::metropolis_on_survivors(
                          graph),
                      model, std::move(shards), config);

  std::uint64_t at_first = 0;
  std::uint64_t at_last = 0;
  trainer.set_observer([&](std::size_t round, const std::vector<SnapNode>&) {
    if (round == kFirst) {
      at_first = g_allocations.load();
      g_counting.store(true);
    } else if (round == kLast) {
      g_counting.store(false);
      at_last = g_allocations.load();
    }
  });
  trainer.train(pool);
  return static_cast<double>(at_last - at_first) /
         static_cast<double>((kLast - kFirst) * kNodes);
}

TEST(AllocationBudgetTest, SteadyStateSyncNodeRound) {
  const double per_node_round = allocations_per_node_round({});
  RecordProperty("allocations_per_node_round",
                 std::to_string(per_node_round));
  EXPECT_LE(per_node_round, kMaxAllocationsPerNodeRound);
}

// Measured at 4.19 per node-round on this configuration: the envelope
// vector, a catch-up frame (control block and buffer) on most activated
// links, since a gossip link is silent most rounds and backlogs, the
// fault layer's per-round state, and the rows re-projected at each
// partition epoch. Building every gossip row into a fresh copy (a
// by-value row per node per round) and drawing the activation into
// fresh scratch measured 6.55.
constexpr double kMaxGossipAllocationsPerNodeRound = 5.0;

TEST(AllocationBudgetTest, GossipNodeRoundUnderFaults) {
  SnapTrainerConfig config;
  config.fabric = runtime::FabricKind::kGossip;
  config.faults.link_enter_burst = 0.05;
  config.faults.link_exit_burst = 0.5;
  config.faults.crash_probability = 0.01;
  config.faults.restart_probability = 0.3;
  config.faults.partition_probability = 0.1;
  config.faults.partition_duration = 4;
  const double per_node_round = allocations_per_node_round(config);
  RecordProperty("allocations_per_node_round",
                 std::to_string(per_node_round));
  EXPECT_LE(per_node_round, kMaxGossipAllocationsPerNodeRound);
}

}  // namespace
}  // namespace snap::core
