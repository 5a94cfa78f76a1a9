// Sparse-core scaling sweep (ROADMAP item 1 deliverable).
//
// Runs the full SNAP trainer at n ∈ {10², 10³, 10⁴, 10⁵} edge servers
// on the sync and gossip fabrics and reports rounds/sec and bytes/round
// per scale. The point of the sweep is the *asymptotic shape*: with the
// CSR weight matrices, slot-indexed node state, lazy hop routing, and
// iterative spectral queries, per-round work is O(|E|·dim) and memory
// O(|E| + n·dim) — no O(n²) term anywhere on the path, so the 10⁵ row
// completes on a laptop instead of exhausting address space.
//
// --max-n=<N> caps the sweep (CI smoke runs --max-n=1000); rounds are
// fixed (min == max iterations) so the timing is a pure per-round rate.
// Each row also carries the fabric's own per-round phase split
// (runtime::PhaseProfile, ms per round) and its peak RSS, and the whole
// table lands in BENCH_scale_sweep.json. Every row runs in a forked
// child, so its peak RSS is its own and not the largest row's before it.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "consensus/sparse_weight_matrix.hpp"
#include "core/snap_trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic_credit.hpp"
#include "ml/linear_svm.hpp"
#include "topology/generators.hpp"

namespace {

constexpr std::size_t kRounds = 20;
constexpr double kAverageDegree = 4.0;
constexpr std::size_t kScales[] = {100, 1'000, 10'000, 100'000};

/// One row's measurements; plain bytes, so a child can pipe them back.
struct SweepRow {
  std::size_t nodes = 0;
  std::size_t rounds = 0;
  double seconds = 0.0;
  double rounds_per_sec = 0.0;
  double bytes_per_round = 0.0;
  double final_loss = 0.0;
  snap::runtime::PhaseProfile profile;
  double peak_rss_mb = 0.0;
};
static_assert(std::is_trivially_copyable_v<SweepRow>);

SweepRow run_once(snap::runtime::FabricKind fabric, std::size_t n) {
  snap::common::Rng rng(2020 + n);
  const snap::topology::Graph graph =
      snap::topology::make_random_connected(n, kAverageDegree, rng);
  const snap::consensus::SparseWeightMatrix w =
      snap::consensus::SparseWeightMatrix::max_degree(graph);

  snap::data::SyntheticCreditConfig data_config;
  data_config.samples = std::max<std::size_t>(2 * n, 2000);
  const snap::data::Dataset all = snap::data::make_synthetic_credit(data_config);
  snap::data::SyntheticCreditConfig test_config;
  test_config.samples = 1000;
  test_config.seed = 7;
  const snap::data::Dataset test = snap::data::make_synthetic_credit(test_config);

  snap::common::Rng shard_rng = rng.fork("shards");
  std::vector<snap::data::Dataset> shards =
      snap::data::partition_equal(all, n, shard_rng);

  const snap::ml::LinearSvm model{snap::ml::LinearSvmConfig{}};

  snap::core::SnapTrainerConfig config;
  config.alpha = 0.3;
  config.convergence.min_iterations = kRounds;
  config.convergence.max_iterations = kRounds;
  config.ape_warmup_iterations = 5;
  config.threads = 0;  // one per hardware thread
  config.fabric = fabric;
  config.seed = 17;

  snap::core::SnapTrainer trainer(graph, w, model, std::move(shards), config);
  const auto start = std::chrono::steady_clock::now();
  const snap::core::TrainResult result = trainer.train(test);
  const auto stop = std::chrono::steady_clock::now();

  SweepRow row;
  row.nodes = n;
  row.rounds = result.iterations.size();
  row.seconds = std::chrono::duration<double>(stop - start).count();
  row.rounds_per_sec =
      row.seconds > 0.0 ? static_cast<double>(row.rounds) / row.seconds : 0.0;
  row.bytes_per_round =
      row.rounds > 0
          ? static_cast<double>(result.total_bytes) /
                static_cast<double>(row.rounds)
          : 0.0;
  row.final_loss = result.final_train_loss;
  row.profile = result.profile;
  return row;
}

/// run_once in a forked child. The child writes its row to a pipe;
/// wait4 then reports that child's own peak RSS (ru_maxrss, KiB on
/// Linux), which starts from the small sweep process it forked from.
/// The sweep process itself starts no threads, so forking it is safe.
SweepRow run_isolated(snap::runtime::FabricKind fabric, std::size_t n) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(nullptr);  // the child leaves by _exit, never flushing
  const pid_t child = ::fork();
  if (child < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (child == 0) {
    ::close(fds[0]);
    int status = 1;
    try {
      const SweepRow row = run_once(fabric, n);
      if (::write(fds[1], &row, sizeof row) ==
          static_cast<ssize_t>(sizeof row)) {
        status = 0;
      }
    } catch (const std::exception& e) {
      std::cerr << "row n=" << n << " failed: " << e.what() << '\n';
    }
    ::_exit(status);
  }
  ::close(fds[1]);
  SweepRow row;
  const ssize_t got = ::read(fds[0], &row, sizeof row);
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  ::wait4(child, &status, 0, &usage);
  if (got != static_cast<ssize_t>(sizeof row) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::cerr << "scale_sweep: the row for n=" << n << " failed\n";
    std::exit(1);
  }
  row.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_n = 100'000;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--max-n=", 8) == 0) {
      // The whole text, digits only: a prefix read takes "1e4" as 1 and
      // would write a sweep with no rows over the JSON.
      const std::string_view text = argv[a] + 8;
      const char* end = text.data() + text.size();
      const auto [stop, error] = std::from_chars(text.data(), end, max_n);
      if (error != std::errc() || stop != end || max_n < kScales[0]) {
        std::cerr << "--max-n takes an integer >= " << kScales[0]
                  << ", got '" << text << "'\n";
        return 2;
      }
    } else {
      std::cerr << "usage: scale_sweep [--max-n=N]\n";
      return 2;
    }
  }

  std::cout << "SNAP sparse-core scale sweep (degree " << kAverageDegree
            << ", " << kRounds << " fixed rounds, max n " << max_n << ")\n\n";
  std::cout << "fabric   nodes     rounds/sec   bytes/round    final loss  "
               "peak RSS MB  | ms/round:";
  for (std::size_t p = 0; p < snap::runtime::kPhaseCount; ++p) {
    std::cout << ' '
              << snap::runtime::phase_name(
                     static_cast<snap::runtime::Phase>(p));
  }
  std::cout << '\n';

  snap::bench::JsonDoc doc;
  doc.add_meta("bench", "scale_sweep");
  doc.add_meta("average_degree", kAverageDegree);
  doc.add_meta("rounds", static_cast<std::uint64_t>(kRounds));
  doc.add_meta("max_n", static_cast<std::uint64_t>(max_n));

  const std::vector<std::pair<std::string, snap::runtime::FabricKind>>
      fabrics = {{"sync", snap::runtime::FabricKind::kSync},
                 {"gossip", snap::runtime::FabricKind::kGossip}};
  for (const auto& [name, kind] : fabrics) {
    for (const std::size_t n : kScales) {
      if (n > max_n) continue;
      const SweepRow row = run_isolated(kind, n);
      std::printf("%-8s %-9zu %-12.2f %-14.1f %-11.6f %-12.1f |",
                  name.c_str(), row.nodes, row.rounds_per_sec,
                  row.bytes_per_round, row.final_loss, row.peak_rss_mb);
      snap::bench::JsonDoc::Fields fields = {
          {"fabric", name},
          {"nodes", static_cast<std::uint64_t>(row.nodes)},
          {"rounds", static_cast<std::uint64_t>(row.rounds)},
          {"seconds", row.seconds},
          {"rounds_per_sec", row.rounds_per_sec},
          {"bytes_per_round", row.bytes_per_round},
          {"final_loss", row.final_loss},
          {"peak_rss_mb", row.peak_rss_mb}};
      for (std::size_t p = 0; p < snap::runtime::kPhaseCount; ++p) {
        const auto phase = static_cast<snap::runtime::Phase>(p);
        const double ms_per_round =
            row.rounds > 0 ? static_cast<double>(row.profile.ns_of(phase)) /
                                 1e6 / static_cast<double>(row.rounds)
                           : 0.0;
        std::printf(" %.3f", ms_per_round);
        fields.emplace_back(std::string(snap::runtime::phase_name(phase)) +
                                "_ms_per_round",
                            ms_per_round);
      }
      std::printf("\n");
      doc.add_row("scale_sweep", std::move(fields));
    }
  }

  doc.write_file("BENCH_scale_sweep.json");
  return 0;
}
