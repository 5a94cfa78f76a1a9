// Runtime-layer bench: the event-driven async fabric vs the paper's
// shared-clock rounds.
//
// Two questions:
//  1. Fidelity — with homogeneous compute and fast links the async
//     runtime must reproduce the sync loss trajectory (the event
//     interleaving collapses to the shared-clock schedule).
//  2. The paper's motivation, §I — under heterogeneous edge servers the
//     parameter server's round is a barrier (slowest worker + incast at
//     the PS NIC), while SNAP's peers free-run and mix with whatever
//     neighbor frames are freshest. Fixed round budget, identical
//     workload and node speeds: compare simulated wall-clock and the
//     staleness SNAP absorbs to win it.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "runtime/fabric.hpp"

int main() {
  using namespace snap;
  using experiments::Scheme;

  std::cout << "SNAP reproduction bench: async event-driven runtime vs "
               "sync rounds\nseed=2020 bench_scale="
            << bench::bench_scale() << "\n";

  experiments::ScenarioConfig base;
  base.nodes = 10;
  base.average_degree = 3.0;
  base.train_samples = bench::scaled(4'000);
  base.test_samples = bench::scaled(1'000);
  base.convergence.loss_tolerance = 0.0;  // fixed 40-round horizon
  base.convergence.max_iterations = 40;
  base.seed = 2020;
  base.async.compute_s = 5e-3;
  base.async.link_latency_s = 1e-3;
  base.async.nic_bandwidth_bytes_per_s = 1e9 / 8.0;

  // --- 1. Fidelity: homogeneous async vs sync, per-scheme. -------------
  experiments::print_banner(
      std::cout,
      "fidelity: homogeneous compute, fast links — async must retrace "
      "the sync loss trajectory");
  experiments::Table fidelity({"scheme", "sync final loss",
                               "async final loss", "max |delta| over run",
                               "rounds"});
  for (const Scheme scheme : {Scheme::kSnap, Scheme::kPs}) {
    experiments::ScenarioConfig cfg = base;
    const experiments::Scenario sync_scenario(cfg);
    const auto sync = sync_scenario.run(scheme);
    cfg.fabric = runtime::FabricKind::kAsync;
    const experiments::Scenario async_scenario(cfg);
    const auto async = async_scenario.run(scheme);
    double max_delta = 0.0;
    const std::size_t rounds =
        std::min(sync.iterations.size(), async.iterations.size());
    for (std::size_t k = 0; k < rounds; ++k) {
      max_delta = std::max(max_delta,
                           std::abs(sync.iterations[k].train_loss -
                                    async.iterations[k].train_loss));
    }
    fidelity.add_row(
        {std::string(experiments::scheme_name(scheme)),
         common::format_double(sync.final_train_loss, 6),
         common::format_double(async.final_train_loss, 6),
         common::format_double(max_delta, 9), std::to_string(rounds)});
  }
  fidelity.print(std::cout);

  // --- 2. Heterogeneous wall-clock: SNAP paces locally, PS barriers. ---
  // Free-running EXTRA diverges once fast nodes mix persistently-skewed
  // views, so the decentralized schemes run with the default
  // neighborhood pacing gate: each node waits only for its own
  // neighbors' frames — no global barrier, no incast hub, no push-back
  // leg. The PS schemes are barriered by construction either way.
  experiments::print_banner(
      std::cout,
      "heterogeneity: slowest node 3x the fastest (+10% jitter), same "
      "40-round budget — simulated wall-clock to finish");
  experiments::Table hetero({"scheme", "fabric", "wall-clock", "vs SNAP",
                             "mean stale", "max stale", "final loss"});
  experiments::ScenarioConfig cfg = base;
  cfg.fabric = runtime::FabricKind::kAsync;
  cfg.async.node_compute_s = runtime::linear_compute_spread(
      cfg.nodes, cfg.async.compute_s, 2.0);
  cfg.async.compute_jitter = 0.1;
  const experiments::Scenario scenario(cfg);
  double snap_time = 0.0;
  for (const Scheme scheme :
       {Scheme::kSnap, Scheme::kSno, Scheme::kPs, Scheme::kTernGrad}) {
    const auto result = scenario.run(scheme);
    double stale_sum = 0.0;
    std::uint64_t stale_max = 0;
    for (const auto& stat : result.iterations) {
      stale_sum += stat.mean_frame_staleness;
      stale_max = std::max(stale_max, stat.max_frame_staleness);
    }
    const double seconds = result.total_sim_seconds;
    if (scheme == Scheme::kSnap) snap_time = seconds;
    hetero.add_row(
        {std::string(experiments::scheme_name(scheme)), "async",
         common::format_double(seconds, 3) + " s",
         common::format_double(seconds / snap_time, 2) + "x",
         common::format_double(
             stale_sum / double(std::max<std::size_t>(
                             result.iterations.size(), 1)),
             2),
         std::to_string(stale_max),
         common::format_double(result.final_train_loss, 6)});
  }
  hetero.print(std::cout);

  std::cout << "\nExpected shape: async and sync trajectories coincide in "
               "part 1 (deltas at rounding noise). In part 2 every "
               "scheme's round is paced by the slowest node, but the PS "
               "schemes additionally pay the incast-serialized uploads "
               "into the server NIC plus the push-back leg every round — "
               "the decentralized schemes finish the same round budget "
               "earlier at the same final loss. (--free-run drops the "
               "pacing gate; EXTRA then diverges, which is why it is a "
               "knob and not the default.)\n";
  return 0;
}
