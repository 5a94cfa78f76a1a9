// google-benchmark micro-kernels for SNAP's hot paths, plus the §IV-C
// frame-format analysis (format A vs B crossover at N = 2M + 1).
#include <benchmark/benchmark.h>

#include <vector>

#include "baselines/terngrad.hpp"
#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "consensus/weight_optimizer.hpp"
#include "data/synthetic_credit.hpp"
#include "ml/linear_svm.hpp"
#include "ml/mlp.hpp"
#include "net/frame.hpp"
#include "topology/generators.hpp"

namespace {

using namespace snap;

void BM_MaxDegreeWeights(benchmark::State& state) {
  common::Rng rng(2);
  const auto g = topology::make_random_connected(
      static_cast<std::size_t>(state.range(0)), 3.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(consensus::max_degree_weights(g));
  }
}
BENCHMARK(BM_MaxDegreeWeights)->Arg(60)->Arg(200);

void BM_WeightOptimization(benchmark::State& state) {
  common::Rng rng(3);
  const auto g = topology::make_random_connected(
      static_cast<std::size_t>(state.range(0)), 3.0, rng);
  consensus::WeightOptimizerConfig cfg;
  cfg.max_iterations = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(consensus::minimize_slem(g, cfg));
  }
}
BENCHMARK(BM_WeightOptimization)->Arg(20)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_FrameEncode(benchmark::State& state) {
  const auto total = static_cast<std::uint32_t>(state.range(0));
  const auto sent = static_cast<std::size_t>(state.range(1));
  common::Rng rng(4);
  const auto idx = rng.sample_without_replacement(total, sent);
  std::vector<std::size_t> sorted(idx.begin(), idx.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<net::ParamUpdate> updates;
  for (const auto i : sorted) {
    updates.push_back({static_cast<std::uint32_t>(i), rng.normal()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_update_frame(total, updates));
  }
}
BENCHMARK(BM_FrameEncode)
    ->Args({23'860, 23'860})
    ->Args({23'860, 1'000})
    ->Args({23'860, 10});

void BM_FrameDecode(benchmark::State& state) {
  const auto total = static_cast<std::uint32_t>(state.range(0));
  const auto sent = static_cast<std::size_t>(state.range(1));
  common::Rng rng(5);
  const auto idx = rng.sample_without_replacement(total, sent);
  std::vector<std::size_t> sorted(idx.begin(), idx.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<net::ParamUpdate> updates;
  for (const auto i : sorted) {
    updates.push_back({static_cast<std::uint32_t>(i), rng.normal()});
  }
  const auto bytes = net::encode_update_frame(total, updates);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_update_frame(bytes));
  }
}
BENCHMARK(BM_FrameDecode)->Args({23'860, 23'860})->Args({23'860, 10});

void BM_SvmGradient(benchmark::State& state) {
  data::SyntheticCreditConfig cfg;
  cfg.samples = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::make_synthetic_credit(cfg);
  const ml::LinearSvm svm{ml::LinearSvmConfig{}};
  common::Rng rng(6);
  const linalg::Vector params = svm.initial_params(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svm.loss_gradient(params, dataset));
  }
}
BENCHMARK(BM_SvmGradient)->Arg(1'000)->Arg(10'000);

/// The uds2_mlp_n16 perfbench shard: 125 MNIST-shaped samples through the
/// paper's 784-30-10 network.
data::Dataset mlp_shard(std::size_t samples) {
  common::Rng rng(7);
  data::Dataset d(784, 10);
  std::vector<double> row(784);
  for (std::size_t s = 0; s < samples; ++s) {
    for (double& px : row) px = rng.uniform();
    d.add(row, static_cast<std::size_t>(rng.uniform_u64(10)));
  }
  return d;
}

void BM_MlpLoss(benchmark::State& state) {
  const auto d = mlp_shard(static_cast<std::size_t>(state.range(0)));
  const ml::Mlp mlp{ml::MlpConfig{}};
  common::Rng init(8);
  const linalg::Vector params = mlp.initial_params(init);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.loss(params, d));
  }
}
BENCHMARK(BM_MlpLoss)->Arg(125)->Unit(benchmark::kMillisecond);

void BM_MlpGradient(benchmark::State& state) {
  const auto d = mlp_shard(static_cast<std::size_t>(state.range(0)));
  const ml::Mlp mlp{ml::MlpConfig{}};
  common::Rng init(8);
  const linalg::Vector params = mlp.initial_params(init);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.loss_gradient(params, d));
  }
}
BENCHMARK(BM_MlpGradient)->Arg(125)->Unit(benchmark::kMillisecond);

void BM_Ternarize(benchmark::State& state) {
  common::Rng rng(9);
  linalg::Vector g(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.normal();
  common::Rng draw(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::ternarize(g, draw));
  }
}
BENCHMARK(BM_Ternarize)->Arg(23'860);

}  // namespace

BENCHMARK_MAIN();
