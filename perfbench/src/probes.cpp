#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "consensus/weight_reprojection.hpp"
#include "core/snap_node.hpp"
#include "net/frame.hpp"
#include "runtime/make_fabric.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

double elapsed_ns(const snap::common::Stopwatch& clock) {
  return clock.elapsed_seconds() * 1e9;
}

// The payload of the empty-round probe: nothing but the envelope.
struct Blank {};

}  // namespace

NodeReplay replay_snap_node(const WorkloadSpec& spec, const Inputs& inputs,
                            std::uint64_t seed, double budget_s) {
  const std::size_t degree =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(spec.degree)));
  std::vector<snap::topology::NodeId> neighbors(degree);
  for (std::size_t s = 0; s < degree; ++s) neighbors[s] = s + 1;
  const double w = 1.0 / static_cast<double>(degree + 1);
  snap::core::SnapNode node(0, *inputs.model, inputs.shards.front(), neighbors,
                            std::vector<double>(degree, w),
                            1.0 - w * static_cast<double>(degree));
  snap::common::Rng rng(seed);
  node.set_initial(inputs.model->initial_params(rng));

  std::vector<double> compute, collect, advance, apply;
  const snap::common::Stopwatch start;
  for (std::size_t it = 0; it < 20'000; ++it) {
    snap::common::Stopwatch t;
    node.compute_update(spec.alpha);
    compute.push_back(elapsed_ns(t));

    t.reset();
    const snap::core::SnapNode::Outgoing out =
        node.collect_updates(snap::core::FilterMode::kApe, 1e-4);
    collect.push_back(elapsed_ns(t));

    t.reset();
    node.advance_views();
    advance.push_back(elapsed_ns(t));

    // Every neighbor "sends" this node's own frame back: the frame size
    // distribution of a node that moves like its neighbors.
    for (const snap::topology::NodeId j : neighbors) {
      t.reset();
      node.apply_update(j, out.updates);
      apply.push_back(elapsed_ns(t));
    }
    if (it >= 10 && start.elapsed_seconds() > budget_s) break;
  }
  return {median(compute), median(collect), median(advance), median(apply)};
}

double empty_round_us(const WorkloadSpec& spec, const Inputs& inputs,
                      std::uint64_t seed) {
  const snap::topology::Graph& graph = inputs.graph;
  const std::size_t n = graph.node_count();
  const bool gossip = spec.fabric == snap::runtime::FabricKind::kGossip;
  constexpr std::size_t kRounds = 20;

  std::vector<double> per_round_us;
  for (int rep = 0; rep < 3; ++rep) {
    snap::runtime::FabricConfig config;
    config.threads = spec.threads;
    config.graph = &graph;
    config.convergence.min_iterations = kRounds;
    config.convergence.max_iterations = kRounds;
    snap::runtime::GossipConfig gossip_config;
    gossip_config.seed = seed;
    auto fabric = snap::runtime::make_fabric<Blank>(spec.fabric, config, {},
                                                    gossip_config);

    // Gossip: the matched partner of each node this tick (-1 = idle).
    std::vector<std::int64_t> partner(gossip ? n : 0, -1);
    std::vector<snap::topology::NodeId> touched;
    snap::runtime::RoundHooks<Blank> hooks;
    hooks.node_count = n;
    if (gossip) {
      hooks.on_activation =
          [&](std::size_t,
              std::span<const snap::runtime::ActivatedLink> links) {
            for (const auto i : touched) partner[i] = -1;
            touched.clear();
            for (const auto& [u, v] : links) {
              partner[u] = static_cast<std::int64_t>(v);
              partner[v] = static_cast<std::int64_t>(u);
              touched.push_back(u);
              touched.push_back(v);
            }
          };
    }
    hooks.collect = [&](snap::topology::NodeId i) {
      std::vector<snap::runtime::Envelope<Blank>> out;
      if (gossip) {
        if (partner[i] >= 0) {
          out.push_back({static_cast<snap::topology::NodeId>(partner[i]),
                         Blank{}, snap::net::kFrameHeaderBytes});
        }
      } else {
        for (const auto j : graph.neighbors(i)) {
          out.push_back({j, Blank{}, snap::net::kFrameHeaderBytes});
        }
      }
      return out;
    };
    hooks.mix = [](snap::topology::NodeId,
                   std::span<const snap::runtime::Delivery<Blank>>,
                   snap::runtime::MessageSink<Blank>&) {};
    hooks.evaluate = [](std::size_t, bool) {
      return snap::runtime::RoundEval{};
    };

    const snap::common::Stopwatch start;
    const snap::core::TrainResult result = fabric->run(hooks);
    const double us = elapsed_ns(start) * 1e-3;
    if (result.iterations.size() != kRounds) {
      throw std::runtime_error("empty-round probe ran " +
                               std::to_string(result.iterations.size()) +
                               " rounds");
    }
    per_round_us.push_back(us / static_cast<double>(kRounds));
  }
  return median(per_round_us);
}

double parallel_for_us(std::size_t threads, std::size_t n, double budget_s) {
  snap::common::ThreadPool pool(threads);
  std::vector<double> samples;
  const snap::common::Stopwatch start;
  for (std::size_t it = 0; it < 100'000; ++it) {
    const snap::common::Stopwatch t;
    pool.parallel_for(0, n, [](std::size_t) {});
    samples.push_back(elapsed_ns(t) * 1e-3);
    if (it >= 10 && start.elapsed_seconds() > budget_s) break;
  }
  return median(samples);
}

FrameCodec frame_codec_us(std::size_t dim, std::size_t sent,
                          std::uint64_t seed, double budget_s) {
  snap::common::Rng rng(seed);
  std::vector<std::size_t> picked = rng.sample_without_replacement(dim, sent);
  std::sort(picked.begin(), picked.end());
  std::vector<snap::net::ParamUpdate> updates;
  updates.reserve(sent);
  for (const std::size_t index : picked) {
    updates.push_back({static_cast<std::uint32_t>(index), rng.normal()});
  }
  const auto total = static_cast<std::uint32_t>(dim);

  std::vector<double> encode, decode;
  const snap::common::Stopwatch start;
  for (std::size_t it = 0; it < 100'000; ++it) {
    snap::common::Stopwatch t;
    const std::vector<std::byte> bytes =
        snap::net::encode_update_frame(total, updates);
    encode.push_back(elapsed_ns(t) * 1e-3);

    t.reset();
    const std::optional<snap::net::UpdateFrame> frame =
        snap::net::decode_update_frame(bytes);
    decode.push_back(elapsed_ns(t) * 1e-3);
    if (!frame.has_value() || frame->updates != updates ||
        bytes.size() != snap::net::encoded_frame_bytes(dim, sent)) {
      throw std::runtime_error("frame codec round trip failed");
    }
    if (it >= 10 && start.elapsed_seconds() > budget_s) break;
  }
  return {median(encode), median(decode)};
}

double reproject_ms(const WorkloadSpec& spec, const Inputs& inputs,
                    std::uint64_t seed, double budget_s) {
  const std::size_t n = inputs.graph.node_count();
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> labels(n, 0);
  const snap::topology::Graph* graph = &inputs.graph;

  // Replay the workload's own fault plan and take the round whose
  // effective graph has the most components.
  std::optional<snap::net::FaultInjector> injector;
  if (inputs.faults.any() || !inputs.faults.latent_nodes.empty()) {
    injector.emplace(inputs.graph, inputs.faults,
                     snap::common::Rng(seed).fork("faults"));
    std::size_t best = 0;
    std::size_t best_components = 0;
    for (std::size_t r = 1; r <= spec.rounds; ++r) {
      injector->ensure_round(r);
      if (injector->component_count(r) > best_components) {
        best_components = injector->component_count(r);
        best = r;
      }
    }
    graph = &injector->current_graph();
    for (snap::topology::NodeId i = 0; i < n; ++i) {
      alive[i] = !injector->confirmed_down(best, i);
    }
    if (injector->tracks_partitions()) labels = injector->component_labels(best);
  }

  std::vector<double> samples;
  const snap::common::Stopwatch start;
  for (std::size_t it = 0; it < 10'000; ++it) {
    const snap::common::Stopwatch t;
    const snap::consensus::SparseWeightMatrix w =
        snap::consensus::reproject_weight_matrix_sparse(
            *graph, alive, labels,
            snap::consensus::ReprojectionMethod::kMetropolis);
    samples.push_back(elapsed_ns(t) * 1e-6);
    if (w.node_count() != n || !w.is_doubly_stochastic()) {
      throw std::runtime_error("re-projected W is not doubly stochastic");
    }
    if (it >= 3 && start.elapsed_seconds() > budget_s) break;
  }
  return median(samples);
}

}  // namespace perfbench
