// The transport seam: how frames move between nodes.
//
// The round fabrics deliver frames through one pluggable backend
// contract:
//
//   post(from, to, payload, wire_bytes, state_sync)   [charge + queue]
//   flip_round()                                      [delivery barrier]
//   inbox(node)                                       [what arrived]
//
// Two backends implement it:
//
//   - SimTransport — the deterministic oracle: in-process double
//     buffers per node, reliable and in global post order. Lost frames
//     are the fabric's doing (it consults the FaultInjector before
//     posting), never the transport's.
//
//   - SocketTransport (socket_transport.hpp) — one OS process per
//     shard of nodes, frames crossing shard boundaries encoded with the
//     scheme's WireCodec and carried over Unix-domain or TCP sockets
//     with length-delimited framing and partial-read reassembly.
//
// The oracle contract that makes the socket backend safe: identical
// seeds must produce bitwise-identical learning trajectories on both
// backends — only wall-clock timing and OS-level byte counts differ.
// tests/transport_parity_test.cpp enforces it.
//
// Wire-cost charging lives *behind* the seam (charge()): both backends
// run the identical accounting code against the fabric's CostTracker,
// so bytes/round and hop-weighted cost are computed identically whether
// a frame crossed a socket or a memcpy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "net/cost_model.hpp"
#include "topology/graph.hpp"

namespace snap::net {

/// Which delivery backend carries the frames.
enum class TransportKind {
  kSim,  ///< in-process SimTransport (the deterministic oracle; default)
  kUds,  ///< multi-process, Unix-domain sockets
  kTcp,  ///< multi-process, TCP loopback sockets
};

std::string_view transport_name(TransportKind kind) noexcept;

/// The backoff before retry `attempt` (0-based) under `schedule`'s
/// retry_backoff_s and max_backoff_s (a runtime::FaultRecoveryConfig or
/// a TransportConfig): retry_backoff_s · 2^attempt, saturated at
/// max_backoff_s (5 s when that is not positive). Overflow-safe for any
/// attempt count — the exponent is clamped before the multiply, so the
/// result never becomes inf even at attempt ≫ 1024.
template <typename Schedule>
double bounded_backoff(const Schedule& schedule,
                       std::size_t attempt) noexcept {
  const double cap =
      schedule.max_backoff_s > 0.0 ? schedule.max_backoff_s : 5.0;
  if (schedule.retry_backoff_s <= 0.0) return 0.0;
  if (schedule.retry_backoff_s >= cap) return cap;
  // 2^63 · any positive backoff already exceeds every sane cap; clamping
  // the exponent keeps the shift defined and the double finite.
  const std::size_t exponent = attempt < 63 ? attempt : 63;
  const double scaled =
      schedule.retry_backoff_s *
      static_cast<double>(std::uint64_t{1} << exponent);
  return scaled < cap ? scaled : cap;
}

/// Everything the socket backend needs to find its peers. Unused when
/// kind == kSim.
struct TransportConfig {
  TransportKind kind = TransportKind::kSim;
  /// Total shard processes in the run (>= 1).
  std::size_t shards = 1;
  /// Which shard THIS process is (0-based).
  std::size_t shard_id = 0;
  /// Directory holding the rendezvous artifacts: shard-<k>.sock (UDS),
  /// shard-<k>.port (TCP), shard-<k>.stats. Must exist before the
  /// transport is constructed; short paths only for UDS (sun_path).
  std::string rendezvous_dir;
  /// Reconnect-with-backoff knobs, same semantics as the fault layer's
  /// FaultRecoveryConfig: the first retry waits retry_backoff_s and
  /// each further attempt doubles it (saturating at max_backoff_s —
  /// bounded_backoff), bounded by max_retries. The defaults
  /// tolerate ~20 s of shard start-up skew at the rendezvous.
  double retry_backoff_s = 0.02;
  std::size_t max_retries = 10;
  /// Ceiling for the doubled backoff (seconds); see
  /// runtime::FaultRecoveryConfig::max_backoff_s.
  double max_backoff_s = 5.0;
  /// Crash recovery: this process is a respawned shard resuming from a
  /// checkpoint. Instead of the cold-start rendezvous it dials every
  /// peer with a RECONNECT handshake and adopts each survivor's parked
  /// flip position.
  bool resume = false;
  /// Monotone respawn counter for this shard (0 = original process).
  /// Survivors reject RECONNECT handshakes whose incarnation does not
  /// exceed the last one they accepted — a replayed or duplicate
  /// handshake is rejected whole.
  std::uint64_t incarnation = 0;
  /// A parked survivor sends a heartbeat record to every live peer each
  /// time this interval elapses without progress, so the dead shard's
  /// absence is visible (and sent-frame logs can be pruned) while the
  /// supervisor respawns it.
  double heartbeat_interval_s = 0.2;
  /// Hard deadline while parked at a barrier with a crashed peer: if no
  /// record at all arrives for this long, the run aborts (the
  /// supervisor is presumed dead too). Resets on any received record.
  double park_timeout_s = 60.0;
};

/// Contiguous-block shard ownership: shard k owns node ids
/// [k·⌈n/K⌉, (k+1)·⌈n/K⌉) clipped to n, with the last shard absorbing
/// the remainder. Contiguous blocks keep shard-ordered folds identical
/// to node-ordered ones, which the parity contract leans on.
std::size_t shard_of_node(topology::NodeId node, std::size_t node_count,
                          std::size_t shards) noexcept;

/// Byte-level codec the socket backend uses to move a typed payload
/// across a process boundary. Must be lossless and deterministic:
/// decode(encode(p)) reproduces p bit for bit (doubles included), and
/// encode(p).size() must equal the wire_bytes charged for the frame —
/// the per-frame parity the oracle test asserts. decode returns nullopt
/// on any malformed buffer; the transport treats that as a hard error
/// (a frame is adopted whole or not at all, never partially).
template <typename Payload>
struct WireCodec {
  std::function<std::vector<std::byte>(const Payload&)> encode;
  std::function<std::optional<Payload>(std::span<const std::byte>)> decode;
};

/// One row of doubles per node, addressed by node id (exchange_rows).
/// An empty span means the node takes no part.
using RowOf = std::function<std::span<double>(topology::NodeId node)>;

/// The seam the fabrics deliver through. Round-structured: frames
/// posted since the last flip become readable at the next flip, per
/// destination, in global post order (the determinism contract every
/// fabric relies on).
template <typename Payload>
class Transport {
 public:
  struct Message {
    topology::NodeId from = 0;
    Payload payload;
  };

  virtual ~Transport() = default;

  virtual TransportKind kind() const noexcept = 0;
  virtual std::size_t node_count() const noexcept = 0;

  /// Attaches the run's cost tracker (nullptr = no accounting). Borrowed,
  /// not owned; must outlive the transport's last post.
  void attach_cost(CostTracker* cost) noexcept { cost_ = cost; }

  /// Charges (charge()) and queues one frame for delivery at the next
  /// flip. wire_bytes == 0 marks a free co-located hand-off (no charge).
  virtual void post(topology::NodeId from, topology::NodeId to,
                    Payload payload, std::size_t wire_bytes,
                    bool state_sync) = 0;

  /// Charges a frame that crossed the wire but is never delivered
  /// (fault-injected corruption): identical accounting on every
  /// backend, no delivery.
  void charge(topology::NodeId from, topology::NodeId to,
              std::size_t wire_bytes, bool state_sync) {
    if (cost_ != nullptr && wire_bytes > 0) {
      cost_->record_flow(from, to, wire_bytes);
    }
    if (state_sync) state_sync_bytes_ += wire_bytes;
  }

  /// Marks the start of round `round` (fabric clock). Resets the
  /// per-round STATE_SYNC tally; backends may extend (the socket
  /// backend stamps its wire headers with it).
  virtual void begin_round(std::size_t round) {
    round_ = round;
    state_sync_bytes_ = 0;
  }

  /// Delivery barrier: everything posted becomes readable, the posting
  /// buffers reset. Fabrics may flip several times per round (reply
  /// waves); the flip count per round is deterministic, which is what
  /// lets the socket backend align its barriers across processes.
  virtual void flip_round() = 0;

  /// Messages delivered to `node` by the last flip, in global post
  /// order.
  virtual const std::vector<Message>& inbox(
      topology::NodeId node) const = 0;

  /// STATE_SYNC bytes charged since begin_round (IterationStats).
  std::uint64_t state_sync_bytes() const noexcept {
    return state_sync_bytes_;
  }

  /// Current fabric round (1-based; 0 before the first begin_round).
  std::size_t round() const noexcept { return round_; }

  /// Owner-computes: does this process run `node`'s model work
  /// (gradient, loss)? Rows it does not compute arrive through
  /// exchange_rows. The sim computes every node.
  virtual bool computes(topology::NodeId /*node*/) const noexcept {
    return true;
  }

  /// Row-exchange barrier for owner-computed model work. On return every
  /// taking-part node's row holds the same bits on every process: rows
  /// of nodes this process computes are inputs, the others are adopted
  /// from the bytes their owner shipped. All non-empty rows have one
  /// length. The sim computes everything, so it exchanges nothing.
  /// Never charged to the CostTracker: it is the emulation's own
  /// traffic, not a frame of the algorithm.
  virtual void exchange_rows(const RowOf& /*row_of*/) {}

  /// Checkpoint hooks: serialize / restore the backend's replicated
  /// wire position (per-frame seq counter, flip index — everything a
  /// resumed process must replay identically for the peers' expected-
  /// seq maps to keep matching). The sim transport is stateless across
  /// rounds, so the defaults are no-ops; the socket backend overrides.
  virtual void save_wire_state(common::ByteWriter& /*writer*/) const {}
  virtual bool restore_wire_state(common::ByteReader& /*reader*/) {
    return true;
  }

 private:
  CostTracker* cost_ = nullptr;
  std::uint64_t state_sync_bytes_ = 0;
  std::size_t round_ = 0;
};

/// The deterministic oracle: posts land in the receiver's outgoing
/// buffer and the flip makes them readable. Sending to self is
/// rejected — almost always a bug in a consensus algorithm.
template <typename Payload>
class SimTransport final : public Transport<Payload> {
 public:
  using Message = typename Transport<Payload>::Message;

  explicit SimTransport(std::size_t node_count)
      : outgoing_(node_count), incoming_(node_count) {}

  TransportKind kind() const noexcept override {
    return TransportKind::kSim;
  }
  std::size_t node_count() const noexcept override {
    return incoming_.size();
  }
  void post(topology::NodeId from, topology::NodeId to, Payload payload,
            std::size_t wire_bytes, bool state_sync) override {
    require_link(from, to);
    this->charge(from, to, wire_bytes, state_sync);
    outgoing_[to].push_back(Message{from, std::move(payload)});
  }
  /// The buffers trade places instead of being moved from, so both keep
  /// their capacity and a steady-state round allocates nothing here.
  void flip_round() override {
    for (std::size_t node = 0; node < incoming_.size(); ++node) {
      incoming_[node].swap(outgoing_[node]);
      outgoing_[node].clear();
    }
  }
  const std::vector<Message>& inbox(
      topology::NodeId node) const override {
    SNAP_REQUIRE(node < incoming_.size());
    return incoming_[node];
  }

  /// Pull-based delivery: the shared-clock fabrics' receivers append
  /// their one-hop frames to their own inbox after the flip, charging
  /// them themselves. Touches only `to`'s inbox, so receivers may pull
  /// in parallel for distinct `to`.
  void deliver(topology::NodeId from, topology::NodeId to, Payload payload) {
    require_link(from, to);
    incoming_[to].push_back(Message{from, std::move(payload)});
  }
  /// Empties `node`'s inbox (keeping its capacity) once it has been read.
  void clear_inbox(topology::NodeId node) {
    SNAP_REQUIRE(node < incoming_.size());
    incoming_[node].clear();
  }

 private:
  void require_link(topology::NodeId from, topology::NodeId to) const {
    SNAP_REQUIRE(from < incoming_.size() && to < incoming_.size());
    SNAP_REQUIRE_MSG(from != to, "node " << from << " messaging itself");
  }

  std::vector<std::vector<Message>> outgoing_;
  std::vector<std::vector<Message>> incoming_;
};

}  // namespace snap::net
