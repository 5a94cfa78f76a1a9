#include "baselines/parameter_server.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "net/cost_model.hpp"
#include "net/frame.hpp"
#include "runtime/make_fabric.hpp"

namespace snap::baselines {

namespace {

/// Mean of the per-shard objectives at `params` — pure per-shard work
/// fanned out, folded in shard order (same bitwise result for any
/// thread count).
double mean_shard_loss(const ml::Model& model, const linalg::Vector& params,
                       const std::vector<data::Dataset>& shards,
                       common::ThreadPool& pool) {
  const double total = common::ordered_parallel_sum(
      pool, shards.size(), [&](std::size_t worker) {
        return model.loss(params, shards[worker]);
      });
  return total / static_cast<double>(shards.size());
}

}  // namespace

core::TrainResult train_parameter_server(
    const topology::Graph& graph, const ml::Model& model,
    std::vector<data::Dataset> shards, const data::Dataset& test,
    const ParameterServerConfig& config) {
  SNAP_REQUIRE(config.alpha > 0.0);
  // Compressors carry hidden state (error feedback, rng streams) the
  // checkpoint blob does not capture, so a resumed TernGrad run would
  // silently diverge — refuse the combination outright.
  SNAP_REQUIRE_MSG(config.checkpoint.every == 0 || !config.compressor,
                   "checkpointing is unsupported with a gradient "
                   "compressor: compressor state is not serialized");
  const std::size_t n = graph.node_count();
  SNAP_REQUIRE(shards.size() == n);

  common::Rng rng(config.seed);
  // Random PS selection, least-hop routing (paper §V "Comparisons").
  auto ps = static_cast<topology::NodeId>(
      rng.fork("ps-select").uniform_u64(n));

  // Fault schedule. The PS node has no failover (the point of the
  // baseline), so scheduled crashes and graceful leaves may not target
  // it, and it must be a member from round 1.
  std::optional<net::FaultInjector> injector;
  if (config.faults.any()) {
    injector.emplace(graph, config.faults, rng.fork("faults"));
    if (config.faults.has_membership()) {
      // Remap the draw forward (wrapping) to the first initial member.
      // Membership-free plans take the draw verbatim, so legacy seeds
      // keep their server.
      for (topology::NodeId probe = 0; probe < n; ++probe) {
        const auto candidate =
            static_cast<topology::NodeId>((ps + probe) % n);
        if (injector->initial_member(candidate)) {
          ps = candidate;
          break;
        }
      }
    }
    for (const auto& event : config.faults.scheduled_crashes) {
      SNAP_REQUIRE_MSG(event.node != ps,
                       "scheduled crash targets the parameter server (node "
                           << ps << "): the PS scheme has no failover");
    }
    for (const auto& event : config.faults.scheduled_leaves) {
      SNAP_REQUIRE_MSG(event.node != ps,
                       "scheduled leave targets the parameter server (node "
                           << ps << "): the PS scheme has no failover");
    }
  }

  common::Rng init_rng = rng.fork("init");
  common::Rng batch_rng = rng.fork("batches");
  linalg::Vector server_params = model.initial_params(init_rng);
  const std::size_t p = model.param_count();
  // A dense transfer is 8 bytes per parameter plus the frame header
  // every scheme pays per socket write (tag + length) — same framing
  // overhead the SNAP trainer charges, so cross-scheme byte comparisons
  // stay apples-to-apples.
  const std::size_t dense_bytes = net::kFrameHeaderBytes + 8 * p;

  const bool minibatch = config.batch_size != 0;
  std::size_t max_shard = 0;
  for (const auto& shard : shards) {
    max_shard = std::max(max_shard, shard.size());
  }
  const std::size_t round_samples =
      minibatch ? std::min(config.batch_size, max_shard) : max_shard;

  using Payload = linalg::Vector;
  auto fabric = runtime::make_fabric<Payload>(
      config.fabric,
      runtime::fabric_config(config, config.eval, graph,
                             injector ? &*injector : nullptr,
                             runtime::gradient_flops(p, round_samples)),
      config.async);

  // Round-scoped state. Every worker keeps its own copy of the global
  // model (they are identical under sync execution; under async a
  // worker's copy is the last push it received).
  std::vector<data::Dataset> batches(n, data::Dataset(1, 2));
  std::vector<linalg::Vector> gradients(n);
  std::vector<linalg::Vector> worker_params(n, server_params);
  std::vector<std::optional<linalg::Vector>> pending(n);
  std::vector<std::size_t> pushes_received(n, 0);
  // Workers the server is not waiting on: confirmed-crashed (on_churn),
  // departed, or latent elastic-membership joiners that have not joined
  // yet. The aggregation averages over whoever actually contributed.
  std::vector<bool> worker_down(n, false);
  if (injector) {
    for (std::size_t worker = 0; worker < n; ++worker) {
      worker_down[worker] = !injector->initial_member(worker);
    }
  }
  std::size_t steps = 0;  // server gradient steps applied

  // Folds the gradients in worker order (bitwise-stable), steps the
  // server, and pushes the new parameters. Fires from whichever event
  // completes the round's gradient set: the last upload's mix, or —
  // async, when the PS node itself is the last to finish computing —
  // its own collect. Fault runs wait only on workers believed alive; a
  // straggling gradient that still made it in contributes anyway.
  const auto maybe_aggregate =
      [&](runtime::MessageSink<Payload>* sink,
          std::vector<runtime::Envelope<Payload>>* out) {
        if (worker_down[ps]) return;  // a dead server steps nothing
        for (std::size_t worker = 0; worker < n; ++worker) {
          if (worker_down[worker]) continue;
          if (!pending[worker].has_value()) return;
        }
        linalg::Vector mean_gradient(p);
        std::size_t contributors = 0;
        for (std::size_t worker = 0; worker < n; ++worker) {
          if (!pending[worker].has_value()) continue;
          mean_gradient += *pending[worker];
          pending[worker].reset();
          ++contributors;
        }
        if (contributors == 0) return;
        mean_gradient *= 1.0 / static_cast<double>(contributors);
        server_params.axpy(-config.alpha, mean_gradient);
        ++steps;
        worker_params[ps] = server_params;
        // Parameter push-back (uncompressed doubles) to every worker.
        for (topology::NodeId worker = 0; worker < n; ++worker) {
          if (worker == ps) continue;
          if (sink != nullptr) {
            sink->send(ps, worker, server_params, dense_bytes);
          } else {
            out->push_back({worker, server_params, dense_bytes});
          }
        }
      };

  runtime::RoundHooks<Payload> hooks;
  hooks.node_count = n;

  // Minibatch draws consume batch_rng serially in worker order (so the
  // sample sequence never depends on scheduling); the gradient
  // evaluations — the expensive part — then fan out per worker.
  hooks.begin_round = [&](std::size_t) {
    for (std::size_t worker = 0; worker < n; ++worker) {
      if (minibatch && config.batch_size < shards[worker].size()) {
        const auto chosen = batch_rng.sample_without_replacement(
            shards[worker].size(), config.batch_size);
        batches[worker] = shards[worker].subset(chosen);
      }
    }
  };

  hooks.local_update = [&](topology::NodeId worker) {
    const bool sampled =
        minibatch && config.batch_size < shards[worker].size();
    gradients[worker] = model.gradient(
        worker_params[worker], sampled ? batches[worker] : shards[worker]);
  };

  // Compression is stateful (per-worker error feedback, rng streams),
  // so the collect phase replays serially in worker order. The PS's
  // co-located worker hands its gradient over for free (no envelope).
  hooks.parallel_collect = false;
  hooks.collect = [&](topology::NodeId worker) {
    linalg::Vector gradient = std::move(gradients[worker]);
    std::size_t wire_bytes = dense_bytes;
    if (config.compressor) {
      CompressedGradient compressed = config.compressor(gradient, worker);
      SNAP_ASSERT(compressed.gradient.size() == p);
      gradient = std::move(compressed.gradient);
      wire_bytes = net::kFrameHeaderBytes + compressed.wire_bytes;
    }
    std::vector<runtime::Envelope<Payload>> envelopes;
    if (worker == ps) {
      pending[ps] = std::move(gradient);
      maybe_aggregate(nullptr, &envelopes);  // async fast path
    } else {
      envelopes.push_back({ps, std::move(gradient), wire_bytes});
    }
    return envelopes;
  };

  hooks.mix = [&](topology::NodeId node,
                  std::span<const runtime::Delivery<Payload>> deliveries,
                  runtime::MessageSink<Payload>& sink) {
    if (node == ps) {
      for (const auto& message : deliveries) {
        pending[message.from] = message.payload;
      }
      maybe_aggregate(&sink, nullptr);
    } else {
      // A push from the server: adopt the new global model.
      for (const auto& message : deliveries) {
        worker_params[node] = message.payload;
        ++pushes_received[node];
      }
    }
  };

  // Bookkeeping: aggregate objective over all shards at the global
  // model (identical definition to the SNAP trainer's).
  hooks.evaluate = [&](std::size_t, bool measure_accuracy) {
    runtime::RoundEval eval;
    eval.train_loss =
        mean_shard_loss(model, server_params, shards, fabric->pool());
    eval.consensus_residual = 0.0;
    if (measure_accuracy) {
      eval.test_accuracy = model.accuracy(server_params, test);
      eval.evaluated = true;
    }
    return eval;
  };

  // Membership reactions: a confirmed crash or a graceful leave frees
  // the aggregation wait (and may complete the in-flight round on the
  // spot); a confirmed restart rejoins the worker and re-pushes it the
  // current model so it does not grind on the parameters it died with.
  // A join is the PS scheme's natural warm start — the server pushes
  // the current global model, flagged STATE_SYNC so the handoff bytes
  // are tallied like SNAP's.
  if (injector) {
    hooks.on_churn = [&](std::size_t, const net::ChurnDelta& delta,
                         runtime::MessageSink<Payload>& sink) {
      for (const auto c : delta.crashed) {
        worker_down[c] = true;
        pending[c].reset();
      }
      for (const auto l : delta.left) {
        worker_down[l] = true;
        pending[l].reset();
      }
      for (const auto r : delta.restarted) {
        worker_down[r] = false;
        if (r != ps) sink.send(ps, r, server_params, dense_bytes);
      }
      for (const auto j : delta.joined) {
        worker_down[j] = false;
        if (j != ps) {
          sink.send(ps, j, server_params, dense_bytes,
                    /*state_sync=*/true);
        }
      }
      if (!delta.crashed.empty() || !delta.left.empty()) {
        maybe_aggregate(&sink, nullptr);
      }
    };
  }

  // Async gates: the PS round is a barrier by construction. A worker
  // may start round r only once it holds the round r−1 push; the
  // server once it has applied step r−1; round r is measurable once
  // step r exists. Under faults a push can be lost, so the worker gate
  // falls back to global progress — computing on the last-received
  // model beats parking forever behind a dropped frame.
  hooks.ready = [&](topology::NodeId node, std::size_t round) {
    if (node == ps || injector) return steps >= round - 1;
    return pushes_received[node] >= round - 1;
  };
  hooks.eval_ready = [&](std::size_t round) { return steps >= round; };

  // Round-aligned checkpoint state: the global model, each worker's
  // local copy, gradients still parked at the server (a round can end
  // mid-wait under faults), push/step counters, the down mask, and the
  // minibatch RNG stream position. The PS selection and fault schedule
  // are seed-derived, so the resumed process reconstructs them before
  // load_state runs. The model-sized vectors are fixed runs of p
  // doubles: their length is the model's, not the blob's.
  const auto transfer = [&](auto& io) {
    const auto blank = [p] { return linalg::Vector(p); };
    fields(io, steps, batch_rng, common::fixed(server_params));
    for (std::size_t worker = 0; worker < n; ++worker) {
      field(io, common::fixed(worker_params[worker]));
      if (common::present(io, pending[worker], blank)) {
        field(io, common::fixed(*pending[worker]));
      }
      fields(io, pushes_received[worker], worker_down[worker]);
    }
  };
  hooks.save_state = [&](common::ByteWriter& writer) { transfer(writer); };
  hooks.load_state = [&](common::ByteReader& reader) {
    transfer(reader);
    return reader.ok();
  };

  core::TrainResult result = fabric->run(hooks);

  result.final_params = server_params;
  result.final_train_loss =
      mean_shard_loss(model, server_params, shards, fabric->pool());
  result.final_test_accuracy = model.accuracy(server_params, test);
  return result;
}

}  // namespace snap::baselines
