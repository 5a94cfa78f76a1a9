#include "core/snap_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "consensus/weight_matrix.hpp"
#include "consensus/weight_reprojection.hpp"
#include "core/link_backlog.hpp"
#include "net/cost_model.hpp"
#include "net/fault_injector.hpp"
#include "net/frame.hpp"
#include "net/socket_transport.hpp"
#include "runtime/make_fabric.hpp"

namespace snap::core {

namespace {

// An immutable batch of parameter updates, sorted by index. One frame
// is shared by every envelope that carries it: a node-round's filtered
// updates go to all of its caught-up links as the same object.
using Frame = std::shared_ptr<const std::vector<net::ParamUpdate>>;

// What SNAP puts on the wire. A regular frame is a (possibly filtered)
// batch of parameter updates; a STATE_SYNC frame is a full-model
// warm-start handoff to a joiner, flagged in-band so the receiver
// adopts it immediately instead of queueing it as a round frame.
struct SnapWire {
  Frame frame;
  bool state_sync = false;

  std::span<const net::ParamUpdate> updates() const noexcept {
    if (!frame) return {};
    return *frame;
  }
};

// Dense full-model frame (index p carries x[p]): the STATE_SYNC image.
Frame dense_frame(const linalg::Vector& x) {
  std::vector<net::ParamUpdate> dense;
  dense.reserve(x.size());
  for (std::size_t p = 0; p < x.size(); ++p) {
    dense.push_back({static_cast<std::uint32_t>(p), x[p]});
  }
  return std::make_shared<const std::vector<net::ParamUpdate>>(
      std::move(dense));
}

// One node's backlogs, keyed by destination and kept sorted — only links
// that have been silent at least once own an entry, so a node whose
// links all fire every round keeps this empty.
using NodeBacklogs = std::vector<std::pair<topology::NodeId, LinkBacklog>>;

NodeBacklogs::iterator lower_bound_of(NodeBacklogs& backlogs,
                                      topology::NodeId j) {
  return std::lower_bound(backlogs.begin(), backlogs.end(), j,
                          [](const auto& entry, topology::NodeId key) {
                            return entry.first < key;
                          });
}

LinkBacklog* find_backlog(NodeBacklogs& backlogs, topology::NodeId j) {
  const auto it = lower_bound_of(backlogs, j);
  return it != backlogs.end() && it->first == j ? &it->second : nullptr;
}

/// The j-link's backlog, allocated (empty) on first use.
LinkBacklog& backlog_for(NodeBacklogs& backlogs, topology::NodeId j,
                         std::size_t dim) {
  const auto it = lower_bound_of(backlogs, j);
  if (it != backlogs.end() && it->first == j) return it->second;
  return backlogs.emplace(it, j, LinkBacklog(dim))->second;
}

// Reported aggregates fold only *alive* nodes — a crashed node's frozen
// iterate would drag the mean toward wherever it died. An all-dead mask
// degenerates to all nodes so the last report stays finite. Fault-free
// (mask all-true) every fold is bitwise the pre-fault original.
bool all_dead(const std::vector<bool>& alive) {
  return std::none_of(alive.begin(), alive.end(), [](bool a) { return a; });
}

/// Splits CSR row i into the aligned (neighbors, weights, self) triple
/// the SnapNode fast path consumes. CSR columns are index-sorted, so
/// the neighbor list comes out sorted for free.
struct AlignedRow {
  std::vector<topology::NodeId> neighbors;
  std::vector<double> weights;
  double self = 0.0;
};

AlignedRow split_row(const consensus::SparseWeightMatrix& w,
                     topology::NodeId i) {
  const auto row = w.row(i);
  AlignedRow out;
  out.neighbors.reserve(row.cols.size() - 1);
  out.weights.reserve(row.cols.size() - 1);
  for (std::size_t k = 0; k < row.cols.size(); ++k) {
    if (row.cols[k] == i) {
      out.self = row.values[k];
    } else {
      out.neighbors.push_back(row.cols[k]);
      out.weights.push_back(row.values[k]);
    }
  }
  return out;
}

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// Slot of j in a sorted neighbor list, or kNoSlot when absent.
std::size_t slot_in(const std::vector<topology::NodeId>& neighbors,
                    topology::NodeId j) {
  const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), j);
  if (it == neighbors.end() || *it != j) return kNoSlot;
  return static_cast<std::size_t>(it - neighbors.begin());
}

/// `w` restricted onto the graph's pattern. Feasibility bounds the
/// off-support entries by tol, so the restriction carries the same
/// weights a dense run would use.
consensus::SparseWeightMatrix feasible_restriction(
    const linalg::Matrix& w, const topology::Graph& graph) {
  SNAP_REQUIRE_MSG(consensus::is_feasible_weight_matrix(w, graph, 1e-6),
                   "W is not feasible for this topology");
  return consensus::SparseWeightMatrix::from_dense(w, graph);
}

// Socket-backed runs move frames through the real SNAP wire encoding:
// regular frames via the two-format §IV-C codec, STATE_SYNC handoffs
// via the checksummed dense frame. encode() produces exactly the bytes
// the accounting charges (encoded_frame_bytes / state_sync_frame_bytes)
// — the per-frame parity the oracle test asserts against the hub's wire
// counters. nullptr on the sim transport.
std::unique_ptr<net::SocketTransport<SnapWire>> socket_transport(
    std::size_t n, std::uint32_t total_params,
    const SnapTrainerConfig& config) {
  if (config.transport.kind == net::TransportKind::kSim) return nullptr;
  SNAP_REQUIRE_MSG(config.fabric != runtime::FabricKind::kAsync,
                   "socket transports require a sync or gossip fabric "
                   "(async delivery is native to the event queue)");
  net::TransportConfig transport_config = config.transport;
  // Rendezvous reconnects reuse the fault layer's backoff semantics:
  // first retry after retry_backoff_s, doubling per attempt, capped at
  // max_backoff_s (the dial loop saturates instead of overflowing).
  transport_config.retry_backoff_s = config.recovery.retry_backoff_s;
  transport_config.max_backoff_s = config.recovery.max_backoff_s;
  net::WireCodec<SnapWire> codec;
  codec.encode = [total_params](const SnapWire& wire) {
    if (wire.state_sync) {
      std::vector<double> values;
      values.reserve(wire.updates().size());
      for (const net::ParamUpdate& u : wire.updates()) {
        SNAP_REQUIRE(u.index == values.size());
        values.push_back(u.value);
      }
      return net::encode_state_sync_frame(values);
    }
    return net::encode_update_frame(total_params, wire.updates());
  };
  codec.decode = [total_params](std::span<const std::byte> bytes)
      -> std::optional<SnapWire> {
    if (bytes.empty()) return std::nullopt;
    if (static_cast<std::uint8_t>(bytes.front()) == net::kStateSyncTag) {
      std::optional<std::vector<double>> values =
          net::decode_state_sync_frame(bytes);
      if (!values.has_value()) return std::nullopt;
      return SnapWire{dense_frame(linalg::Vector(std::move(*values))), true};
    }
    std::optional<net::UpdateFrame> frame = net::decode_update_frame(bytes);
    if (!frame.has_value() || frame->total_params != total_params) {
      return std::nullopt;
    }
    return SnapWire{std::make_shared<const std::vector<net::ParamUpdate>>(
                        std::move(frame->updates)),
                    false};
  };
  return std::make_unique<net::SocketTransport<SnapWire>>(
      n, transport_config, std::move(codec));
}

// Gossip activation state, laid out so the serial preamble stays
// O(n + links) and the per-node work runs in each node's own task.
// `links` is this round's activation and `link_ends` buckets it by
// endpoint (node i's links are link_ends[link_start[i], link_start[i +
// 1]): each the partner and the link's index, in activation order). From those each node sets its own
// `link_active[i][s]` (s = the neighbor's slot in node i's sorted
// neighbor list), which gates collect for the round being sent, and
// `kept[k]` records whether link k survived the filter of
// on_activation. `prev_links` is the previous round's surviving
// activation — the links whose frames populated the views the
// *current* round's update mixes, hence the support of the effective
// rows; node i's row entries are row_entries[row_start[i], row_start[i
// + 1]). `built_round` is the round a node's row was last built for.
struct GossipRows {
  explicit GossipRows(std::size_t n)
      : link_active(n), degree(n, 0), link_start(n + 1, 0),
        row_start(n + 1, 0), built_round(n, 0) {}
  std::vector<std::vector<std::uint8_t>> link_active;
  std::vector<runtime::ActivatedLink> links;
  std::vector<std::uint8_t> kept;
  std::vector<std::size_t> degree;
  std::vector<std::size_t> link_start;
  std::vector<std::pair<topology::NodeId, std::size_t>> link_ends;
  std::vector<runtime::ActivatedLink> prev_links;
  std::vector<std::size_t> row_start;
  std::vector<SnapNode::RowEntry> row_entries;
  std::vector<std::size_t> built_round;
  /// The round the rows are built for, and whether it restarts EXTRA.
  std::size_t round = 0;
  bool restart = false;
};

/// `kept` before either endpoint's task has judged the link.
constexpr std::uint8_t kUnjudged = 2;

/// Buckets the links for which `use(u, v)` holds by endpoint, CSR-style,
/// in link order: node i's entries land in [start[i], start[i + 1]) of
/// `entries`, written by `emit(entries, at_u, at_v, u, v, k)`. `count`
/// is O(n) scratch, left holding each node's bucket size.
template <typename Use, typename Entry, typename Emit>
void bucket_by_node(std::span<const runtime::ActivatedLink> links,
                    std::vector<std::size_t>& count,
                    std::vector<std::size_t>& start,
                    std::vector<Entry>& entries, Use&& use, Emit&& emit) {
  std::fill(count.begin(), count.end(), 0);
  for (const auto& [u, v] : links) {
    if (!use(u, v)) continue;
    ++count[u];
    ++count[v];
  }
  // start[i + 1] begins as node i's first slot and is advanced past
  // each entry written, ending as node i + 1's first.
  std::size_t total = 0;
  for (std::size_t i = 0; i < count.size(); ++i) {
    start[i + 1] = total;
    total += count[i];
  }
  entries.resize(total);
  for (std::size_t k = 0; k < links.size(); ++k) {
    const auto [u, v] = links[k];
    if (!use(u, v)) continue;
    emit(entries, start[u + 1]++, start[v + 1]++, u, v, k);
  }
}

// Round-aligned async (the default): EXTRA's corrected recursion
// telescopes only if node i's round-k update consumes each neighbor's
// round-(k-1) frame exactly once — views that skip or double-consume a
// neighbor round feed a persistent error through the accumulator and
// the run diverges (empirically: hetero spread 2.0 blows the loss up by
// 5-6 orders of magnitude). So each receiver queues arriving frames per
// link and applies exactly one per neighbor at the top of its next
// update; the ready gate parks a node until every neighbor queue is
// non-empty. No global barrier, no incast hub — each neighborhood paces
// itself — and the resulting parameter trajectory is the sync one,
// reached on an event-driven clock. Free-run mode has no queues and
// mixes whatever is freshest.
struct PacedQueues {
  explicit PacedQueues(std::size_t n) : pending(n) {}
  std::vector<std::unordered_map<topology::NodeId, std::deque<Frame>>>
      pending;
};

// Cost-aware sparsification state. `masks[i][s]` marks the link to
// node i's slot-s neighbor as pruned: the one form the pruned set takes,
// and the O(1) gate collect and on_activation check. A pruned link sits
// in both endpoints' rows (a structural zero), so both carry its bit.
// The schedule consumes no randomness — sparsify_topology is a pure
// function of (graph, alive, labels, config) — so it replays bitwise on
// every fabric, shard, and resume. The rest is the telemetry stamped
// onto every recorded round.
struct PrunedLinks {
  explicit PrunedLinks(std::size_t n) : masks(n) {}
  std::vector<std::vector<std::uint8_t>> masks;
  std::uint64_t links_pruned = 0;
  std::uint64_t effective_edges = 0;
  double slem_after = 0.0;
};

// A member function as a hook: the closure holds only the object.
template <auto Method, typename Scheme>
auto hook(Scheme* self) {
  return [self](auto&&... args) {
    return (self->*Method)(std::forward<decltype(args)>(args)...);
  };
}

// The whole SNAP algorithm as a round scheme: the fabric owns the clock,
// the transport, the accounting and the convergence detector; this owns
// every piece of algorithm state and answers the fabric's phase hooks.
// Mode-specific state (gossip rows, paced queues, pruned links) exists
// only when its mode is on, and its hooks are wired only then.
class SnapScheme {
 public:
  /// Borrows the trainer's W, which membership and sparsifier epochs
  /// overwrite, and consumes its shards.
  SnapScheme(const topology::Graph& graph, consensus::SparseWeightMatrix& w,
             const ml::Model& model, std::span<data::Dataset> shards,
             const SnapTrainerConfig& config, const data::Dataset& test,
             const IterationObserver& observer)
      : graph_(graph),
        model_(model),
        config_(config),
        test_(test),
        observer_(observer),
        n_(graph.node_count()),
        total_params_(static_cast<std::uint32_t>(model.param_count())),
        async_mode_(config.fabric == runtime::FabricKind::kAsync),
        w_(w),
        alive_(n_, true),
        ape_(n_),
        backlog_(n_),
        frame_buffers_(n_),
        rounds_(n_, 0) {
    SNAP_REQUIRE_MSG(!async_mode_ || !config_.sparsify.enabled,
                     "topology sparsification requires a sync or gossip "
                     "fabric (pruned-link duty cycling is round-aligned)");
    SNAP_REQUIRE_MSG(!async_mode_ || (config_.checkpoint.every == 0 &&
                                      !config_.checkpoint.resume),
                     "checkpointing requires a sync or gossip fabric "
                     "(the async event clock has no round boundary to "
                     "align a checkpoint to)");
    for (const auto& shard : shards) {
      max_shard_ = std::max(max_shard_, shard.size());
    }
    // Fault schedule. (Built ahead of the nodes so the sparsifier can
    // see the initial membership; rng.fork is a pure function of (seed,
    // tag), so hoisting it never shifts any stream.) Latent elastic-
    // membership joiners start outside the membership.
    common::Rng rng(config_.seed);
    if (config_.faults.any()) {
      injector_.emplace(graph_, config_.faults, rng.fork("links"));
      for (topology::NodeId i = 0; i < n_; ++i) {
        alive_[i] = injector_->initial_member(i);
      }
    }
    // Initial prune, before the nodes consume their rows: the provided W
    // is replaced with the sparsifier's re-derived one. Pruned entries
    // are structural zeros, so every neighbor slot stays aligned with
    // the full topology.
    std::vector<std::uint8_t> edge_kept;
    if (config_.sparsify.enabled) {
      pruned_.emplace(n_);
      edge_kept = apply_sparsifier(graph_, {});
    }
    // Each node's weight row is one CSR row split around the diagonal,
    // already index-sorted and aligned.
    nodes_.reserve(n_);
    for (topology::NodeId i = 0; i < n_; ++i) {
      AlignedRow row = split_row(w_, i);
      nodes_.emplace_back(i, model_, std::move(shards[i]),
                          std::move(row.neighbors), std::move(row.weights),
                          row.self, config_.straggler_policy);
    }
    if (pruned_) mark_pruned(graph_, edge_kept);
    // Shared initial model (every edge server starts from the same copy
    // of the uniform model, §II-B).
    common::Rng init_rng = rng.fork("init");
    const linalg::Vector x0 = model_.initial_params(init_rng);
    for (auto& node : nodes_) node.set_initial(x0);
    if (config_.fabric == runtime::FabricKind::kGossip) gossip_.emplace(n_);
    if (async_mode_ && !config_.async_free_run) paced_.emplace(n_);
  }
  SnapScheme(const SnapScheme&) = delete;
  SnapScheme& operator=(const SnapScheme&) = delete;

  /// Points at this scheme's fault injector: the scheme must outlive
  /// the fabric built from it.
  runtime::FabricConfig fabric_config() {
    // The slowest node (largest shard) bounds the shared round.
    return runtime::fabric_config(
        config_, config_.eval, graph_, injector_ ? &*injector_ : nullptr,
        runtime::gradient_flops(model_.param_count(), max_shard_));
  }

  /// The only place that knows RoundHooks. `socket` is the fabric's
  /// transport when it is a socket one (owner-computed losses).
  runtime::RoundHooks<SnapWire> hooks(runtime::RoundFabric<SnapWire>& fabric,
                                      net::Transport<SnapWire>* socket) {
    fabric_ = &fabric;
    socket_ = socket;
    runtime::RoundHooks<SnapWire> hooks;
    hooks.node_count = n_;
    // The trainer only tracks the shared-clock round so sync collect
    // queries link state at the round the fabric posts against (a node
    // that slept through crashes has a lagging local counter).
    hooks.begin_round = [this](std::size_t round) { global_round_ = round; };
    // The gradient is its own hook so the fabric can run it only where
    // the transport computes the node; elsewhere the owner's row arrives
    // in gradient_row before local_update.
    hooks.local_gradient = [this](topology::NodeId i) {
      nodes_[i].compute_gradient();
    };
    hooks.gradient_row = [this](topology::NodeId i) {
      return nodes_[i].gradient_row();
    };
    hooks.local_update = hook<&SnapScheme::local_update>(this);
    hooks.collect = hook<&SnapScheme::collect>(this);
    hooks.mix = hook<&SnapScheme::mix>(this);
    hooks.evaluate = hook<&SnapScheme::evaluate>(this);
    hooks.end_round = hook<&SnapScheme::end_round>(this);
    hooks.save_state = hook<&SnapScheme::save_state>(this);
    hooks.load_state = hook<&SnapScheme::load_state>(this);
    if (gossip_) hooks.on_activation = hook<&SnapScheme::on_activation>(this);
    if (injector_) {
      hooks.on_churn = hook<&SnapScheme::on_churn>(this);
      hooks.on_partition = hook<&SnapScheme::on_partition>(this);
    }
    if (paced_) hooks.ready = hook<&SnapScheme::ready>(this);
    if (pruned_) hooks.annotate_stats = hook<&SnapScheme::annotate_stats>(this);
    return hooks;
  }

  // Parallelized over the parameter dimension: each entry's sum still
  // folds node contributions in node order, so the result is bitwise
  // identical to the serial mean for any thread count.
  linalg::Vector mean_model() {
    const bool use_all = all_dead(alive_);
    std::size_t count = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      count += (use_all || alive_[i]) ? 1 : 0;
    }
    const std::size_t dim = nodes_.front().params().size();
    const double inverse_count = 1.0 / static_cast<double>(count);
    linalg::Vector mean(dim);
    pool().parallel_for(0, dim, [&](std::size_t d) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n_; ++i) {
        if (!use_all && !alive_[i]) continue;
        acc += nodes_[i].params()[d];
      }
      mean[d] = acc * inverse_count;
    });
    return mean;
  }

  // Owner-computes: each member's f_i(at) is evaluated only where the
  // socket transport computes the node (every node on the sim), and the
  // rest arrive as one-double rows. `losses_` is ordered_parallel_sum's
  // buffer; the fold stays buffer-then-sum in node order, so the mean is
  // bitwise the same on every transport.
  double mean_loss(const linalg::Vector& at) {
    const bool use_all = all_dead(alive_);
    const auto member = [&](std::size_t i) { return use_all || alive_[i]; };
    losses_.assign(n_, 0.0);
    // Fanned out over the computed nodes only: the pool chunks statically.
    computed_.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      if (member(i) && (socket_ == nullptr || socket_->computes(i))) {
        computed_.push_back(i);
      }
    }
    pool().parallel_for(0, computed_.size(), [&](std::size_t k) {
      const std::size_t i = computed_[k];
      losses_[i] = nodes_[i].local_loss(at);
    });
    if (socket_ != nullptr) {
      socket_->exchange_rows([&](topology::NodeId i) {
        return member(i) ? std::span<double>(&losses_[i], 1)
                         : std::span<double>();
      });
    }
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      total += losses_[i];
      count += member(i) ? 1 : 0;
    }
    return total / static_cast<double>(count);
  }

 private:
  common::ThreadPool& pool() { return fabric_->pool(); }

  // Re-prunes g and takes the sparsifier's W. Returns the per-edge
  // survival flags, which mark_pruned projects once the node rows built
  // from that W are set.
  std::vector<std::uint8_t> apply_sparsifier(
      const topology::Graph& g, const std::vector<std::size_t>& labels) {
    consensus::SparsifierResult pruned =
        consensus::sparsify_topology(g, alive_, labels, config_.sparsify);
    w_ = std::move(pruned.w);
    pruned_->links_pruned = pruned.links_pruned;
    pruned_->effective_edges = pruned.effective_edges;
    pruned_->slem_after = pruned.slem_after;
    return std::move(pruned.edge_kept);
  }

  // Rebuilds the masks from the sparsifier's cut of g. Only effective
  // edges are ever pruned, and both their endpoints' rows were just set
  // from the sparsifier's W, so each one has its two slots.
  void mark_pruned(const topology::Graph& g,
                   const std::vector<std::uint8_t>& edge_kept) {
    clear_pruned();
    const auto& edges = g.edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edge_kept[e]) continue;
      const bool linked = prune_link(edges[e].first, edges[e].second);
      SNAP_ASSERT(linked);
    }
  }

  void clear_pruned() {
    for (topology::NodeId i = 0; i < n_; ++i) {
      pruned_->masks[i].assign(nodes_[i].neighbors().size(), 0);
    }
  }

  // Marks {u, v} pruned at both endpoints; false (nothing marked) when
  // either row lacks the other.
  bool prune_link(topology::NodeId u, topology::NodeId v) {
    const std::size_t su = slot_in(nodes_[u].neighbors(), v);
    const std::size_t sv = slot_in(nodes_[v].neighbors(), u);
    if (su == kNoSlot || sv == kNoSlot) return false;
    pruned_->masks[u][su] = 1;
    pruned_->masks[v][sv] = 1;
    return true;
  }

  // Fires serially in the round preamble, after confirmed churn has been
  // surfaced (so `alive_` and the node topologies are current) and
  // before any phase runs. O(n + links): it only buckets the previous
  // and the new activation by node; each node builds its row and marks
  // its links in its own task (prepare_gossip_node).
  void on_activation(std::size_t round,
                     std::span<const runtime::ActivatedLink> links) {
    GossipRows& g = *gossip_;
    // Periodic synchronized restart (GossipConfig::restart_every):
    // round-varying activations excite the neutrally-stable modes of
    // EXTRA's memory recursion — without this, the compounded error
    // surfaces as a slow exponential after a few hundred ticks. Keyed on
    // the round number alone, so every node (and every replay) restarts
    // on the same tick.
    g.round = round;
    g.restart = config_.gossip.restart_every > 0 && round > 1 &&
                (round - 1) % config_.gossip.restart_every == 0;
    // The rows this round's updates mix with are Metropolis–Hastings on
    // the PREVIOUS activation: frames sent over A_{t-1} are what this
    // round's compute_update mixes. A link between alive nodes weighs
    // 1 / (1 + max(deg u, deg v)) at both ends, and each node's entries
    // keep the activation order, so its self weight subtracts them in
    // the order the dense reference in tests/oracle/ does.
    const auto both_alive = [&](topology::NodeId u, topology::NodeId v) {
      return alive_[u] && alive_[v];
    };
    bucket_by_node(std::span<const runtime::ActivatedLink>(g.prev_links),
                   g.degree, g.row_start, g.row_entries, both_alive,
                   [&](auto& entries, std::size_t at_u, std::size_t at_v,
                       topology::NodeId u, topology::NodeId v, std::size_t) {
                     const double weight =
                         1.0 / (1.0 + static_cast<double>(std::max(
                                          g.degree[u], g.degree[v])));
                     entries[at_u] = {v, weight};
                     entries[at_v] = {u, weight};
                   });
    g.links.assign(links.begin(), links.end());
    g.kept.assign(links.size(), kUnjudged);
    bucket_by_node(links, g.degree, g.link_start, g.link_ends,
                   [](topology::NodeId, topology::NodeId) { return true; },
                   [](auto& entries, std::size_t at_u, std::size_t at_v,
                      topology::NodeId u, topology::NodeId v, std::size_t k) {
                     entries[at_u] = {v, k};
                     entries[at_v] = {u, k};
                   });
  }

  // Node i's share of the activation, in its own task: its row for the
  // round (alive nodes) and the gate on its links.
  void prepare_gossip_node(topology::NodeId i) {
    if (alive_[i]) build_gossip_row(i);
    mark_gossip_links(i);
  }

  // Installs alive node i's row for the round from its bucket (and the
  // round's restart). Round 1 (empty prev_links) gives identity rows —
  // every view still equals the shared x⁰, so W·x̂ = x⁰ for any doubly
  // stochastic W and the tick is bitwise a plain gradient step. The
  // same row serves both recursion terms: W_t and W̃_t are
  // row-stochastic, so the (W_t − W_{t-1})/2 mismatch on the memory
  // term annihilates consensus vectors and the filtered EXTRA fixed
  // points survive (see DESIGN.md, "Gossip fabric").
  void build_gossip_row(topology::NodeId i) {
    GossipRows& g = *gossip_;
    if (g.restart) nodes_[i].restart();
    nodes_[i].set_weight_row(std::span<const SnapNode::RowEntry>(
        g.row_entries.data() + g.row_start[i],
        g.row_start[i + 1] - g.row_start[i]));
    g.built_round[i] = g.round;
  }

  // Opens node i's slots of its activated links that survive the filter
  // (gossip_link_kept) and judges each link once: at its lower end, or
  // at the higher one when the lower is down and skips its task.
  void mark_gossip_links(topology::NodeId i) {
    GossipRows& g = *gossip_;
    const std::vector<topology::NodeId>& mine = nodes_[i].neighbors();
    g.link_active[i].assign(mine.size(), 0);
    for (std::size_t at = g.link_start[i]; at < g.link_start[i + 1]; ++at) {
      const auto [j, k] = g.link_ends[at];
      const topology::NodeId u = std::min(i, j);
      const bool kept = gossip_link_kept(u, std::max(i, j));
      if (kept) g.link_active[i][slot_in(mine, j)] = 1;
      if (i == u || down(u)) g.kept[k] = kept ? 1 : 0;
    }
  }

  // Sparsified gossip duty-cycles the pruned links out of every
  // activation *after* the scheduler drew it: the schedule itself is
  // untouched (same draws for every surviving link, bitwise the
  // unsparsified stream), the pruned links just never fire. A kept link
  // feeds both link_active (this round's sends) and prev_links (next
  // round's rows), so a pruned link contributes neither frames nor
  // mixing weight. A link missing from either endpoint's row (a joiner's
  // edge when churn does not re-project) is treated the same way. The
  // masks mark a pruned link at both ends, so either end may judge.
  bool gossip_link_kept(topology::NodeId u, topology::NodeId v) const {
    const std::size_t su = slot_in(nodes_[u].neighbors(), v);
    const std::size_t sv = slot_in(nodes_[v].neighbors(), u);
    return su != kNoSlot && sv != kNoSlot &&
           !(pruned_ && pruned_->masks[u][su]);
  }

  // Whether node i sits out this round's node tasks.
  bool down(topology::NodeId i) const {
    return injector_ && injector_->node_down(global_round_, i);
  }

  // The end of the round's gossip work, before the observer and the
  // checkpoint see the nodes: the rows of the alive nodes the fabric
  // skipped (down but not yet confirmed crashed) and the links both of
  // whose ends it skipped, then the surviving activation in order.
  void finish_gossip_round() {
    GossipRows& g = *gossip_;
    // Only a crashed member can be alive and skipped.
    if (injector_ && injector_->down_node_count(global_round_) > 0) {
      for (topology::NodeId i = 0; i < n_; ++i) {
        if (alive_[i] && g.built_round[i] != g.round) build_gossip_row(i);
      }
    }
    g.prev_links.clear();
    for (std::size_t k = 0; k < g.links.size(); ++k) {
      const auto [u, v] = g.links[k];
      if (g.kept[k] == kUnjudged) g.kept[k] = gossip_link_kept(u, v) ? 1 : 0;
      if (g.kept[k]) g.prev_links.push_back(g.links[k]);
    }
  }

  // 1. Local EXTRA update from the current views, then rotate the view
  // double-buffer so frames arriving for this round land "fresh". Each
  // node only touches its own state. Paced async first folds in exactly
  // one queued frame per neighbor — the round-aligned delivery the
  // recursion needs (the fabric's event loop is single-threaded, so the
  // queues are safe to touch here).
  void local_update(topology::NodeId i) {
    if (gossip_) prepare_gossip_node(i);
    if (paced_ && rounds_[i] > 0) {
      for (const auto j : nodes_[i].neighbors()) {
        auto& queued = paced_->pending[i][j];
        if (queued.empty()) {
          // Only fault runs pass the gate frameless: the neighbor is
          // dead or suspected, and kReweight folds its weight into self
          // inside compute_update. Fault-free pacing guarantees one.
          SNAP_ASSERT(injector_.has_value());
          continue;
        }
        nodes_[i].apply_update(j, *queued.front());
        queued.pop_front();
      }
    }
    nodes_[i].extra_step(config_.alpha);
    nodes_[i].advance_views();
    ++rounds_[i];
  }

  // 2. Filter, frame, and transmit. A link that is silent this round
  // keeps its updates in the backlog and retransmits them (merged) when
  // it next fires — persistent-TCP semantics; only frames actually
  // written to a live link are charged (by the fabric, off wire_bytes).
  //
  // The filtered updates become one immutable frame shared by every live
  // link with nothing pending — the common case, costing no per-link
  // work. A link with a backlog merges the round's updates into it and
  // sends the drained catch-up frame instead; both come out in ascending
  // index order, so the bytes are the same either way.
  //
  // Warmup (and non-APE modes) behave like SNAP-0: send every changed
  // parameter. The controller arms itself the first round after warmup,
  // anchored to the node's current parameter scale, so the 10%-of-mean-
  // |parameter| budget reflects the model's working scale rather than
  // the near-zero initialization.
  std::vector<runtime::Envelope<SnapWire>> collect(topology::NodeId i) {
    const bool ape_enabled = config_.filter == FilterMode::kApe &&
                             rounds_[i] > config_.ape_warmup_iterations;
    if (ape_enabled && !ape_[i].has_value()) {
      const linalg::Vector& x = nodes_[i].params();
      const double mean_abs =
          x.empty() ? 0.0 : x.norm1() / static_cast<double>(x.size());
      ape_[i].emplace(config_.ape, mean_abs);
    }
    const FilterMode mode = config_.filter == FilterMode::kApe && !ape_enabled
                                ? FilterMode::kExactChange
                                : config_.filter;
    const double threshold = ape_enabled ? ape_[i]->threshold() : 0.0;
    // Reuse last round's buffer when no envelope, inbox or paced queue
    // still holds it; the fabric's phase barriers order those releases
    // before this collect.
    auto& buffer = frame_buffers_[i];
    if (!buffer || buffer.use_count() > 1) {
      buffer = std::make_shared<std::vector<net::ParamUpdate>>();
    }
    const double max_withheld =
        nodes_[i].collect_updates(mode, threshold, *buffer);
    if (ape_enabled) {
      // A stage advance resets the controller's APE accounting window
      // (the paper's per-stage "restart" of the error bound).
      ape_[i]->record_iteration(max_withheld);
    }
    const Frame frame = buffer;
    const auto& my_neighbors = nodes_[i].neighbors();
    std::vector<runtime::Envelope<SnapWire>> envelopes;
    envelopes.reserve(my_neighbors.size());
    // Async has no shared clock: there each node's own round is the
    // sender round the fabric checks.
    const std::size_t link_round = async_mode_ ? rounds_[i] : global_round_;
    for (std::size_t s = 0; s < my_neighbors.size(); ++s) {
      const topology::NodeId j = my_neighbors[s];
      // Silent links: a sparsifier-pruned link (silent for the whole
      // epoch — zero mixing weight, so a later epoch that re-admits it
      // starts with one merged catch-up frame), a non-activated gossip
      // link (silent until its next activation), and a down link —
      // link_down covers both the burst chain and crashed endpoints, so
      // the first frame after a neighbor's restart repairs its view.
      const bool silent =
          (pruned_ && pruned_->masks[i][s]) ||
          (gossip_ && !gossip_->link_active[i][s]) ||
          (injector_ && injector_->link_down(link_round, i, j));
      if (silent) {
        backlog_for(backlog_[i], j, total_params_).merge(*frame);
        continue;
      }
      // A live link always carries a frame — an empty one is the
      // heartbeat that lets the receiver distinguish "nothing above
      // threshold" from "link down" (kReweight needs to know).
      Frame sent = frame;
      if (LinkBacklog* queued = find_backlog(backlog_[i], j);
          queued != nullptr && !queued->empty()) {
        queued->merge(*frame);
        auto catch_up = std::make_shared<std::vector<net::ParamUpdate>>();
        queued->drain(*catch_up);
        sent = std::move(catch_up);
      }
      const std::size_t wire_bytes =
          net::encoded_frame_bytes(total_params_, sent->size());
      envelopes.push_back({j, SnapWire{std::move(sent)}, wire_bytes});
    }
    return envelopes;
  }

  // 3. Delivery: each receiver folds arrived frames into its own views.
  // Paced async only queues them here — consumption is round-aligned in
  // local_update, so a fast neighbor's next frame can never overwrite a
  // view the receiver has not mixed yet.
  void mix(topology::NodeId i,
           std::span<const runtime::Delivery<SnapWire>> deliveries,
           runtime::MessageSink<SnapWire>&) {
    for (const auto& message : deliveries) {
      if (message.payload.state_sync) {
        // STATE_SYNC handoff: already adopted at the epoch boundary as
        // part of the coordinated join handshake (on_churn) — a handoff
        // is not a round frame, so it never enters the paced queues, and
        // re-applying it here (possibly rounds later on the async
        // fabric) would teleport the joiner backwards through its own
        // recursion. The frame's purpose on this path is its wire cost,
        // which the fabric has already charged.
        continue;
      }
      if (paced_) {
        paced_->pending[i][message.from].push_back(message.payload.frame);
      } else {
        nodes_[i].apply_update(message.from, message.payload.updates());
      }
    }
  }

  // 4. Bookkeeping: the mean model's aggregate objective, consensus
  // residual, and (gated) test accuracy. Reported aggregates fold only
  // the current membership.
  runtime::RoundEval evaluate(std::size_t, bool measure_accuracy) {
    const linalg::Vector mean = mean_model();
    runtime::RoundEval eval;
    const bool use_all = all_dead(alive_);
    eval.consensus_residual =
        common::ordered_parallel_max(pool(), n_, [&](std::size_t i) {
          if (!use_all && !alive_[i]) return 0.0;
          return linalg::max_abs_diff(nodes_[i].params(), mean);
        });
    eval.train_loss = mean_loss(mean);
    if (measure_accuracy) {
      eval.test_accuracy = model_.accuracy(mean, test_);
      eval.evaluated = true;
    }
    return eval;
  }

  // 5. One synchronized recursion restart, at the end of the round in
  // which every controller has decayed below ε — on every fabric, before
  // the observer and the round's checkpoint. Filtered views break the
  // telescoped invariant that makes EXTRA exact, so the filtered phase
  // is treated as producing an *initial value* for one exact run — "the
  // convergence and optimality of iteration (6) has nothing to do with
  // the initial parameter values" (§IV-C). The restart must be
  // simultaneous: nodes mid-recursion mixed with nodes on their first
  // step destabilize each other. All controllers share the same
  // schedule parameters and initial model, so in a real deployment each
  // node reaches ε within a bounded window of the others and can arm
  // the restart off the shared clock. Async has no global round
  // boundary; its eval barrier (every node has finished the round) is
  // the closest point, so there a fast node restarts a round or two into
  // its future (homogeneous timing collapses this to the sync
  // semantics).
  void end_round(std::size_t round) {
    if (gossip_) finish_gossip_round();
    maybe_restart();
    if (observer_) observer_(round, nodes_);
  }

  void maybe_restart() {
    if (config_.filter != FilterMode::kApe || restarted_) return;
    for (topology::NodeId i = 0; i < n_; ++i) {
      // A crashed node's controller can never decay; only the current
      // membership has to agree.
      if (!alive_[i]) continue;
      if (!ape_[i].has_value() || ape_[i]->active()) return;
    }
    for (auto& node : nodes_) node.restart();
    restarted_ = true;
  }

  // Paced-async gate: a node may start round k+1 only once a frame (or
  // heartbeat) from every neighbor's round k is queued. Neighborhood-
  // local — no global barrier, and the wall-clock win over the PS comes
  // from losing the incast hub and the push-back leg, not from skipping
  // slow nodes. The first update needs no frames (all views start at
  // the shared x0).
  bool ready(topology::NodeId i, std::size_t) const {
    if (rounds_[i] == 0) return true;
    const auto& neighbors = nodes_[i].neighbors();
    return std::all_of(neighbors.begin(), neighbors.end(),
                       [&](topology::NodeId j) {
                         // Never park behind a dead or silent peer —
                         // that is exactly the forever-stall the
                         // recovery layer exists to break. kReweight
                         // absorbs the missing frame.
                         if (injector_ &&
                             (!alive_[j] || fabric_->suspected(i, j))) {
                           return true;
                         }
                         const auto it = paced_->pending[i].find(j);
                         return it != paced_->pending[i].end() &&
                                !it->second.empty();
                       });
  }

  // Self-healing on confirmed churn. §IV-C gives the license: EXTRA's
  // fixed point "has nothing to do with the initial parameter values",
  // so after a membership change the members re-project W onto the
  // current topology (absent rows/columns become identity, their mass
  // redistributed) and restart the recursion from wherever they are —
  // current iterates become the new x⁰. Without this the recursion
  // keeps anchoring to an absent node's frozen parameters and the
  // persistent-view-skew divergence returns.
  //
  // A join is the growth direction of the same epoch: the injector has
  // already attached the joiner to k live neighbors, so here the members
  // (a) optionally donate a STATE_SYNC warm start from one live
  // neighbor, (b) prime both directions of every new link with a
  // full-vector frame — the first frame on a fresh link carries the
  // complete model, not a delta against a baseline the peer never saw —
  // and (c) fold the joiner into the re-projected W.
  void on_churn(std::size_t round, const net::ChurnDelta& delta,
                runtime::MessageSink<SnapWire>& sink) {
    // Membership as the scheme believes it: flipped only by *confirmed*
    // churn deltas, never by transient blips.
    for (const auto c : delta.crashed) alive_[c] = false;
    for (const auto l : delta.left) alive_[l] = false;
    for (const auto r : delta.restarted) alive_[r] = true;
    for (const auto j : delta.joined) alive_[j] = true;
    // Ablation: without re-projection there is no healing at all —
    // joiners stay outside the mixing matrix (identity row) and run cold
    // on whatever links they have.
    if (!config_.reproject_on_churn) return;
    const topology::Graph& g = injector_->current_graph();
    for (const auto j : delta.joined) {
      // Warm start: one live neighbor donates its full model as part of
      // the coordinated join handshake. The adoption must land at this
      // epoch boundary — before the collective restart below — because
      // a teleport *after* neighbors restart enters their EXTRA memory
      // term as a phantom displacement that never cancels (the loss
      // then drifts for the rest of the run). One donor suffices: §IV-C
      // makes any single live iterate a valid restart point. The
      // STATE_SYNC frame sent here is the handshake's charged wire
      // image.
      if (config_.warm_start_joins) {
        for (const auto h : g.neighbors(j)) {
          if (!alive_[h]) continue;
          nodes_[j].adopt_params(nodes_[h].params());
          sink.send(h, j, SnapWire{dense_frame(nodes_[h].params()), true},
                    net::state_sync_frame_bytes(total_params_),
                    /*state_sync=*/true);
          break;
        }
      }
      // Prime both directions of every new link with the post-adoption
      // iterates, so every neighbor's view of the joiner matches what
      // the joiner actually restarts from.
      const linalg::Vector& xj = nodes_[j].params();
      for (const auto h : g.neighbors(j)) {
        if (!alive_[h]) continue;
        backlog_for(backlog_[j], h, total_params_).prime(xj.span());
        backlog_for(backlog_[h], j, total_params_)
            .prime(nodes_[h].params().span());
      }
    }
    // W repair rides the component labels: under the shared clock a
    // confirmed churn event changes the labeling at this same round, so
    // this is exactly the partition hook's re-projection run one wave
    // early (idempotent); under async skew the churn hook may fire
    // rounds after the round-indexed delta did, and this is what folds
    // the late-confirmed membership flip into W.
    reproject_components(round);
  }

  // Split-brain reaction + merge-on-heal. The injector labels the
  // connected components of the *effective* graph (alive members ∧ links
  // not under a sustained outage) every round; whenever the labeling
  // changes — a crash was confirmed, a sustained cut split the topology,
  // a heal merged it back — this rebuilds W as a block-diagonal matrix
  // over the components and restarts EXTRA per component (§IV-C's
  // license: any iterate is a valid restart point, so each side of a
  // split keeps making independent progress on its own data). On a heal,
  // the boundary nodes first exchange full-state STATE_SYNC frames
  // across the healed edges — view repair must land *before* the
  // re-projection restarts the merged component, or the stale views
  // enter the fresh recursion's memory term as a phantom displacement
  // that never cancels.
  void on_partition(std::size_t round, const net::PartitionDelta& delta,
                    runtime::MessageSink<SnapWire>& sink) {
    if (!config_.reproject_on_churn) return;
    for (const auto& [u, v] : delta.healed_edges) {
      if (!alive_[u] || !alive_[v]) continue;
      // Both endpoints spent the split on different sides: each one's
      // view of the other is frozen at the split round. Swap full models
      // directly (the charged STATE_SYNC frames are the wire image of
      // that exchange) and drop the split-era backlog — the
      // absolute-value updates it merged are superseded wholesale.
      Frame dense_u = dense_frame(nodes_[u].params());
      Frame dense_v = dense_frame(nodes_[v].params());
      nodes_[v].apply_update(u, *dense_u);
      nodes_[u].apply_update(v, *dense_v);
      if (LinkBacklog* b = find_backlog(backlog_[u], v)) b->clear();
      if (LinkBacklog* b = find_backlog(backlog_[v], u)) b->clear();
      sink.send(u, v, SnapWire{std::move(dense_u), true},
                net::state_sync_frame_bytes(total_params_),
                /*state_sync=*/true);
      sink.send(v, u, SnapWire{std::move(dense_v), true},
                net::state_sync_frame_bytes(total_params_),
                /*state_sync=*/true);
    }
    // Block-diagonal re-projection over the new labels: an edge survives
    // only when both endpoints are alive and share a component. With a
    // single component this is bitwise the plain survivor re-projection,
    // so unpartitioned churn trajectories are unchanged. The churn hook
    // may have run it already this round, over the same membership and
    // labels: the re-run would rebuild the same W and rows and repeat the
    // restart, and the heal syncs above touch only views and backlogs.
    if (reprojected_round_ != round) reproject_components(round);
  }

  // Shared W repair: block-diagonal re-projection over the injector's
  // component labels for `round`, then per-component EXTRA restart.
  // Idempotent within a round (same labels → same W, restart resets the
  // same counter), so the churn and partition hooks may both run it at
  // an epoch boundary without disturbing the trajectory.
  void reproject_components(std::size_t round) {
    constexpr std::size_t kExcluded = topology::ComponentMap::kExcluded;
    const topology::Graph& g = injector_->current_graph();
    const std::vector<std::size_t>& labels =
        injector_->component_labels(round);
    std::vector<std::uint8_t> edge_kept;
    if (pruned_) {
      // Sparsifier epoch: re-prune the current effective subgraph and
      // take its re-derived W in place of the plain re-projection. The
      // labels restrict pruning within components, so the partition
      // machinery's block structure is preserved exactly; the new cut
      // re-marks the masks once the rows below are set.
      edge_kept = apply_sparsifier(g, labels);
    } else {
      // Empty labels (component tracking off: pure memoryless link
      // noise) re-project over the survivors alone.
      w_ = consensus::reproject_weight_matrix_sparse(
          g, alive_, labels, consensus::ReprojectionMethod::kMetropolis);
    }
    // Each node's row, neighbor list and restart are its own: the pool
    // runs them.
    pool().parallel_for(0, n_, [&](std::size_t i) {
      if (!alive_[i]) return;
      if (!labels.empty() && labels[i] == kExcluded) return;
      AlignedRow row = split_row(w_, i);
      nodes_[i].set_topology(std::move(row.neighbors),
                             std::move(row.weights), row.self);
      nodes_[i].restart();
    });
    if (pruned_) mark_pruned(g, edge_kept);
    reprojected_round_ = round;
  }

  // Sparsifier telemetry: stamped onto every recorded row just before the
  // fabric commits it, so the CSV/checkpoint carry the pruned state
  // actually in force for that round. A pruned link carries no frames,
  // so its burst outages are no outage anyone sees: they leave the
  // injector's links_down count. (Its chain keeps drawing, so pruning
  // never perturbs the surviving links' schedule.)
  void annotate_stats(IterationStats& stats) const {
    stats.links_pruned = pruned_->links_pruned;
    stats.effective_edges = pruned_->effective_edges;
    stats.slem_after_prune = pruned_->slem_after;
    if (!injector_) return;
    for_each_pruned([&](topology::NodeId u, topology::NodeId v) {
      if (injector_->link_burst_down(global_round_, u, v)) --stats.links_down;
    });
  }

  // Visits every pruned link once, as (lower id, higher id).
  template <typename Visit>
  void for_each_pruned(Visit&& visit) const {
    for (topology::NodeId i = 0; i < n_; ++i) {
      const auto& my_neighbors = nodes_[i].neighbors();
      for (std::size_t s = 0; s < my_neighbors.size(); ++s) {
        if (pruned_->masks[i][s] && i < my_neighbors[s]) {
          visit(i, my_neighbors[s]);
        }
      }
    }
  }

  // Checkpoint save/restore of the algorithm's complete mutable state:
  // node iterates/views/mixing rows (SnapNode::save), APE controllers,
  // the confirmed-membership mask, the non-empty per-link transmit
  // backlogs, per-node round counters, the one-shot recursion-restart
  // flag, the previous gossip activation (the rows the next
  // on_activation rebuilds) and the pruned-link state. w_ is
  // deliberately absent: re-projections recompute it from the
  // injector's graph + the alive mask, and the per-node rows it produced
  // are already in the node blobs. The fabric restores its own side
  // (series, cost totals, injector round, wire positions) around these.
  void save_state(common::ByteWriter& writer) const {
    Derived derived;
    if (gossip_) derived.prev_links = gossip_->prev_links;
    if (pruned_) {
      for_each_pruned([&](topology::NodeId u, topology::NodeId v) {
        derived.pruned_keys.push_back(net::FaultInjector::link_key(u, v));
      });
      std::sort(derived.pruned_keys.begin(), derived.pruned_keys.end());
    }
    transfer(*this, derived, writer);
  }

  bool load_state(common::ByteReader& reader) {
    Derived derived;
    transfer(*this, derived, reader);
    return reader.ok() && validate(derived);
  }

  // What the blob carries in another form than the scheme holds it: the
  // previous gossip activation (empty outside gossip) and the pruned
  // links as sorted FaultInjector::link_key values, so replicas write
  // identical bytes.
  struct Derived {
    std::vector<runtime::ActivatedLink> prev_links;
    std::vector<std::uint64_t> pruned_keys;
  };

  // The checkpoint field list save_state and load_state both walk.
  template <class Self, class D, class Io>
  static void transfer(Self& self, D& derived, Io& io) {
    for (auto& node : self.nodes_) field(io, node);
    // A loaded controller re-derives nothing: any anchor will do, the
    // transfer overwrites every derived field.
    const auto armed = [&] { return ApeController(self.config_.ape, 0.0); };
    for (auto& controller : self.ape_) {
      if (present(io, controller, armed)) field(io, *controller);
    }
    field(io, common::fixed(self.alive_));
    self.transfer_backlogs(io);
    fields(io, common::fixed(self.rounds_), self.restarted_,
           derived.prev_links);
    if (self.pruned_) {
      fields(io, derived.pruned_keys, self.pruned_->links_pruned,
             self.pruned_->effective_edges, self.pruned_->slem_after);
    }
  }

  // LinkBacklog keeps a dedicated pair (its sparse image is not its
  // dense layout). Per node: the count of pending links (an empty
  // backlog and no backlog behave identically), then each one's
  // destination and image, in destination order.
  void transfer_backlogs(common::ByteWriter& writer) const {
    for (const NodeBacklogs& links : backlog_) {
      writer.write_u64(static_cast<std::uint64_t>(std::count_if(
          links.begin(), links.end(),
          [](const auto& entry) { return !entry.second.empty(); })));
      for (const auto& [j, queued] : links) {
        if (queued.empty()) continue;
        writer.write_u64(j);
        field(writer, queued);
      }
    }
  }
  // At most n links a node: each one allocates a dense backlog.
  void transfer_backlogs(common::ByteReader& reader) {
    for (NodeBacklogs& links : backlog_) {
      links.clear();
      const std::uint64_t count = reader.read_u64();
      if (count > n_) return reader.fail();
      for (std::uint64_t k = 0; k < count && reader.ok(); ++k) {
        const auto j = static_cast<topology::NodeId>(reader.read_u64());
        field(reader, backlog_for(links, j, total_params_));
      }
    }
  }

  // The id and range checks of a loaded blob, then the install of its
  // derived parts. Ids come from bytes on disk: an out-of-range
  // destination, neighbor or link endpoint refuses the resume rather
  // than addressing past the per-node tables (SnapNode::load and
  // LinkBacklog::load have checked shapes and parameter indices).
  bool validate(Derived& derived) {
    for (topology::NodeId i = 0; i < n_; ++i) {
      // Ascending (checked by SnapNode::load): the last id bounds all.
      const auto& neighbors = nodes_[i].neighbors();
      if (!neighbors.empty() && neighbors.back() >= n_) return false;
      for (const auto& [j, queued] : backlog_[i]) {
        if (j >= n_ || j == i) return false;
      }
    }
    const std::uint64_t max_links = static_cast<std::uint64_t>(n_) * n_;
    if (derived.prev_links.size() > max_links) return false;
    for (const auto& [u, v] : derived.prev_links) {
      if (u >= n_ || v >= n_) return false;
    }
    if (gossip_) gossip_->prev_links = std::move(derived.prev_links);
    if (!pruned_) return true;
    if (derived.pruned_keys.size() > max_links) return false;
    // Each key is a canonical link_key, (higher id << 32) | lower id,
    // naming a link the restored (sparsified) rows both hold.
    clear_pruned();
    for (const std::uint64_t key : derived.pruned_keys) {
      const std::uint64_t hi = key >> 32;
      const std::uint64_t lo = key & 0xffffffffULL;
      if (hi >= n_ || lo >= hi ||
          !prune_link(static_cast<topology::NodeId>(lo),
                      static_cast<topology::NodeId>(hi))) {
        return false;
      }
    }
    return true;
  }

  const topology::Graph& graph_;
  const ml::Model& model_;
  const SnapTrainerConfig& config_;
  const data::Dataset& test_;
  const IterationObserver& observer_;
  const std::size_t n_;
  const std::uint32_t total_params_;
  const bool async_mode_;
  std::size_t max_shard_ = 0;
  consensus::SparseWeightMatrix& w_;
  std::optional<net::FaultInjector> injector_;
  /// Membership as the scheme currently believes it (see on_churn).
  std::vector<bool> alive_;
  std::optional<PrunedLinks> pruned_;
  std::vector<SnapNode> nodes_;
  /// Per-node APE controllers (fully local, §IV-C), armed after warmup.
  std::vector<std::optional<ApeController>> ape_;
  /// Per-directed-link transmit backlog (core/link_backlog.hpp): updates
  /// a silent link could not carry, merged into the next frame it does
  /// carry. Allocated on a link's first silent round.
  std::vector<NodeBacklogs> backlog_;
  /// Per-node collect buffer, recycled once the previous round's
  /// envelopes have released it.
  std::vector<std::shared_ptr<std::vector<net::ParamUpdate>>>
      frame_buffers_;
  /// Local round counter per node: the fabric's global round under
  /// shared-clock execution, free-running under async. Drives warmup.
  std::vector<std::size_t> rounds_;
  bool restarted_ = false;
  std::size_t global_round_ = 0;
  /// The round reproject_components last ran for (0 = none yet).
  std::size_t reprojected_round_ = 0;
  std::optional<GossipRows> gossip_;
  std::optional<PacedQueues> paced_;
  /// mean_loss's buffers, kept across rounds.
  std::vector<double> losses_;
  std::vector<std::size_t> computed_;
  runtime::RoundFabric<SnapWire>* fabric_ = nullptr;
  net::Transport<SnapWire>* socket_ = nullptr;
};

}  // namespace

SnapTrainer::SnapTrainer(const topology::Graph& graph,
                         const linalg::Matrix& w, const ml::Model& model,
                         std::vector<data::Dataset> shards,
                         SnapTrainerConfig config)
    : SnapTrainer(graph, feasible_restriction(w, graph), model,
                  std::move(shards), config) {}

SnapTrainer::SnapTrainer(const topology::Graph& graph,
                         const consensus::SparseWeightMatrix& w,
                         const ml::Model& model,
                         std::vector<data::Dataset> shards,
                         SnapTrainerConfig config)
    : graph_(&graph),
      w_(w),
      model_(&model),
      shards_(std::move(shards)),
      config_(config) {
  SNAP_REQUIRE(config_.alpha > 0.0);
  SNAP_REQUIRE_MSG(shards_.size() == graph.node_count(),
                   "one shard per node required");
  SNAP_REQUIRE_MSG(consensus::is_feasible_weight_matrix(w_, graph, 1e-6),
                   "W is not feasible for this topology");
}

TrainResult SnapTrainer::train(const data::Dataset& test) {
  SNAP_REQUIRE_MSG(!trained_,
                   "SnapTrainer is one-shot: shards were consumed by the "
                   "previous train() call");
  trained_ = true;
  SnapScheme scheme(*graph_, w_, *model_, shards_, config_, test,
                    observer_);
  std::unique_ptr<net::SocketTransport<SnapWire>> transport =
      socket_transport(graph_->node_count(),
                       static_cast<std::uint32_t>(model_->param_count()),
                       config_);
  net::SocketTransport<SnapWire>* socket = transport.get();
  runtime::GossipConfig gossip = config_.gossip;
  if (gossip.seed == 0) gossip.seed = config_.seed;
  const auto fabric = runtime::make_fabric<SnapWire>(
      config_.fabric, scheme.fabric_config(), config_.async, gossip,
      std::move(transport));
  runtime::RoundHooks<SnapWire> hooks = scheme.hooks(*fabric, socket);
  TrainResult result = fabric->run(hooks);

  const linalg::Vector mean = scheme.mean_model();
  result.final_params = mean;
  result.final_train_loss = scheme.mean_loss(mean);
  result.final_test_accuracy = model_->accuracy(mean, test);
  // Publish the shard's wire counters (frames, shares, OS bytes,
  // per-frame charged-vs-encoded parity) before the artifacts are torn
  // down.
  if (socket != nullptr) socket->write_stats();
  return result;
}

}  // namespace snap::core
