// Socket-backed transport: one OS process per shard of nodes.
//
// How K processes run one deterministic training run
// --------------------------------------------------
// Bookkeeping is replicated; model work is computed by the owner;
// shares are adopted.
//
// Replicated: every shard process runs the cheap per-node phases for
// all n nodes — APE collect, mix, the mean and residual folds, fault
// draws, churn, restarts — bit for bit the SimTransport trajectory, so
// every shard holds every node's complete state (and its checkpoint
// keeps the single-process format).
//
// Owner-computed: the two model calls that dominate a round, each
// node's gradient and its loss at the mean model, run only on the
// shard that owns the node (computes()). exchange_rows then ships the
// owner's rows to every peer as SHARE records — the raw doubles plus a
// checksum — and each peer adopts them into the node's buffer instead
// of recomputing them. A loss is a one-double row, and the loss fold
// still buffers per node and sums in node order, so train_loss is
// bitwise the sim's. Shares are the emulation's own traffic: never
// charged to the CostTracker, never counted as frames.
//
// Adopted frames: a frame whose sender the local shard owns and whose
// receiver it does not is encoded with the scheme's WireCodec and
// shipped to the receiver's owner over a real socket; symmetrically, a
// frame *into* an owned node from a non-owned sender is never taken
// from local memory — the locally computed copy is dropped and the
// inbox entry is adopted from the bytes that crossed the socket. Owned
// nodes therefore train on wire-decoded input for every cross-shard
// edge: corrupt one byte in flight and the checksums/structure checks
// reject the frame and the run aborts loudly, instead of the replica
// silently papering over it.
//
// Ordering: the sim inbox order is global post order. Because every
// replica executes the identical serial post sequence, the process's
// one post counter (next_seq_) is identical across shards; it rides
// the wire header, dropped local copies remember the seq they
// expect, and the flip merges local + wire messages back into
// ascending seq — the bitwise sim order. A wire frame whose
// (seq, from, to) does not match a dropped local copy means the
// replicas diverged: hard error.
//
// Rendezvous and barriers: shard k binds shard-<k>.sock (UDS) or an
// ephemeral TCP port published as shard-<k>.port in the rendezvous
// directory, connects to every lower-numbered shard with bounded
// doubling backoff (FaultRecoveryConfig semantics), and validates a
// HELLO (magic, protocol version, shard/node counts) per link. Each
// flip_round and each exchange_rows sends its frames or shares plus a
// BARRIER record to every peer, then reads — reassembling partial
// reads — until every peer's barrier for that index arrived. Flips and
// exchanges share one barrier index space, and their count per round
// is deterministic, so barriers align across processes without a
// coordinator.
//
// Crash recovery: a respawned shard resumes from its checkpoint and
// adopts each survivor's parked barrier index (live_from). Below it,
// the resumed shard keeps its locally computed frames and computes
// every node's model work itself (the full-local fallback, bitwise the
// wire copies by replica determinism); from it on, it exchanges again.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "net/transport.hpp"
#include "topology/graph.hpp"

namespace snap::net {

// Records multiplexed over one shard-to-shard stream. Each record is a
// struct with its tag and a transfer that lists its fields once through
// the common::field codec; encode_record writes the tag, then the
// fields. The length prefix around a record comes from
// FrameReassembler::frame. docs/protocol.md has the byte layout.

/// "SNAP", stamped after the tag of HELLO, RECONNECT and RECONNECT_ACK.
inline constexpr std::uint32_t kHelloMagic = 0x534E4150;
/// Version 2 added SHARE records; version 3 dropped RECONNECT's unused
/// resume flip.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// Who sent a handshake and which run it belongs to: the part HELLO and
/// RECONNECT share, checked against the local config on arrival.
struct RunShape {
  std::size_t shard = 0;
  std::size_t shards = 0;
  std::uint64_t nodes = 0;
  std::uint32_t version = kProtocolVersion;

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    common::fields(io, common::constant(kHelloMagic),
                   common::u32(self.version), common::u32(self.shard),
                   common::u32(self.shards), self.nodes);
  }
};

/// The rendezvous handshake: each end of a new link sends its own.
struct HelloRecord {
  static constexpr std::uint8_t kTag = 1;
  RunShape shape;

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    common::fields(io, self.shape);
  }
};

/// One cross-shard frame: routing header + codec payload.
struct WireRecord {
  static constexpr std::uint8_t kTag = 2;
  std::uint64_t flip = 0;      ///< flip index the frame belongs to
  std::uint64_t seq = 0;       ///< global post sequence (replica-aligned)
  topology::NodeId from = 0;
  topology::NodeId to = 0;
  bool state_sync = false;
  std::uint64_t charged_bytes = 0;  ///< wire_bytes the sender charged
  std::vector<std::byte> payload;   ///< WireCodec output, to record end

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    common::fields(io, self.flip, self.seq, common::u32(self.from),
                   common::u32(self.to), self.state_sync, self.charged_bytes,
                   common::rest(self.payload));
  }
  std::size_t bulk_bytes() const noexcept { return payload.size(); }
};

/// "Every record of mine for `flip` precedes this one."
struct BarrierRecord {
  static constexpr std::uint8_t kTag = 3;
  std::uint64_t flip = 0;

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    common::fields(io, self.flip);
  }
};

/// A parked survivor's liveness beacon: "I am waiting at `flip`". Lets
/// live peers prune their sent-frame replay logs below that flip (the
/// sender will never need anything older resent) while a crashed shard
/// is being respawned.
struct HeartbeatRecord {
  static constexpr std::uint8_t kTag = 4;
  std::uint64_t flip = 0;

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    common::fields(io, self.flip);
  }
};

/// First record on a respawned shard's replacement connection: the HELLO
/// shape plus the respawn incarnation. A survivor rejects the whole
/// handshake unless the incarnation strictly exceeds the last one it
/// accepted from that shard (reconnect_supersedes) — replayed or
/// duplicate handshakes never install a connection.
struct ReconnectRecord {
  static constexpr std::uint8_t kTag = 5;
  RunShape shape;
  std::uint64_t incarnation = 0;

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    common::fields(io, self.shape, self.incarnation);
  }
};

/// The survivor's reply: `parked_flip` is the first flip for which the
/// resumed shard must exchange wire traffic again (everything below it
/// runs on the full-local replica); `incarnation` echoes the handshake.
struct ReconnectAckRecord {
  static constexpr std::uint8_t kTag = 6;
  std::size_t shard = 0;
  std::uint64_t parked_flip = 0;
  std::uint64_t incarnation = 0;

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    common::fields(io, common::constant(kHelloMagic), common::u32(self.shard),
                   self.parked_flip, self.incarnation);
  }
};

/// One owner-computed row — a node's gradient, or its loss as a
/// one-double row — on its way to the replicas that adopt it instead of
/// recomputing it.
struct ShareRecord {
  static constexpr std::uint8_t kTag = 7;
  std::uint64_t barrier = 0;  ///< exchange index (shared with flips)
  topology::NodeId node = 0;
  std::vector<double> values;

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    common::fields(io, self.barrier, common::u32(self.node),
                   common::checked_row(self.values));
  }
  std::size_t bulk_bytes() const noexcept {
    return sizeof(double) * values.size();
  }
};

/// A record body: its tag, then its fields. The buffer is sized once,
/// bulk fields included (bulk_bytes).
template <class R>
std::vector<std::byte> encode_record(const R& record) {
  constexpr std::size_t kFixedBytes = 64;  // covers every fixed layout
  std::size_t bytes = kFixedBytes;
  if constexpr (requires { record.bulk_bytes(); }) {
    bytes += record.bulk_bytes();
  }
  common::ByteWriter writer(bytes);
  writer.write_u8(R::kTag);
  R::transfer(record, writer);
  return writer.take();
}

/// Parses a record body: nullopt on another tag, truncation, a field
/// its shape refuses, or trailing bytes.
template <class R>
std::optional<R> decode_record(std::span<const std::byte> bytes) {
  common::ByteReader reader(bytes);
  if (reader.read_u8() != R::kTag) return std::nullopt;
  R record;
  R::transfer(record, reader);
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return record;
}

/// Duplicate-rejection rule for RECONNECT handshakes: an incoming
/// incarnation installs a connection only if it strictly exceeds the
/// last accepted one (the initial rendezvous counts as incarnation 0).
constexpr bool reconnect_supersedes(std::uint64_t seen_incarnation,
                                    std::uint64_t incoming_incarnation)
    noexcept {
  return incoming_incarnation > seen_incarnation;
}

/// OS-level counters and per-frame byte parity for one shard process.
struct SocketHubStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  /// Sum of codec payload bytes actually shipped (the frame image as it
  /// exists on the wire, headers excluded).
  std::uint64_t payload_bytes_sent = 0;
  /// Sum of the wire_bytes the accounting charged for those frames.
  std::uint64_t charged_bytes_sent = 0;
  /// Frames whose codec image size differed from the charged size (the
  /// oracle test requires 0: real bytes and charged encoded_frame_bytes
  /// must agree per frame).
  std::uint64_t mismatched_frames = 0;
  /// Raw bytes handed to / taken from the OS, record framing included.
  std::uint64_t os_bytes_sent = 0;
  std::uint64_t os_bytes_received = 0;
  /// RECONNECT handshakes installed (as a survivor) or acknowledged (as
  /// a respawn); failed dials at start-up are not reconnects.
  std::uint64_t reconnects = 0;
  std::uint64_t flips = 0;
  /// SHARE records shipped (one per peer) and their row bytes (8 per
  /// double, record framing excluded). Emulation traffic: never in
  /// frames_sent or the charged bytes.
  std::uint64_t share_records_sent = 0;
  std::uint64_t share_bytes_sent = 0;
};

/// Byte-level peer mesh between shard processes (pimpl'd so this header
/// stays free of OS socket headers).
class SocketHub {
 public:
  /// Performs the whole rendezvous: bind + publish, connect to lower
  /// shards with backoff, accept higher shards, HELLO-validate every
  /// link. Throws common::ContractViolation on any protocol mismatch.
  SocketHub(const TransportConfig& config, std::size_t node_count);
  ~SocketHub();

  SocketHub(const SocketHub&) = delete;
  SocketHub& operator=(const SocketHub&) = delete;

  std::size_t shard_id() const noexcept;
  std::size_t shard_count() const noexcept;

  /// Ships one frame record to `peer_shard`.
  void send_frame(std::size_t peer_shard, const WireRecord& record);

  /// Barrier for `flip`: sends BARRIER to every participating peer,
  /// reads until every such peer's barrier for `flip` arrived, and
  /// returns the frames received for it (frames for later flips are
  /// buffered internally). A peer whose connection dropped without its
  /// barrier is treated as crashed: the hub parks here — sending
  /// heartbeats each heartbeat_interval_s, accepting the respawned
  /// process's RECONNECT on the listener, replaying the logged frames
  /// it missed — until the barrier arrives or park_timeout_s elapses
  /// with no traffic at all.
  std::vector<WireRecord> finish_flip(std::uint64_t flip);

  /// Ships one owner-computed row to every peer taking part in its
  /// barrier, logged for replay like a frame.
  void send_share(const ShareRecord& record);

  /// Row-exchange barrier `barrier` (the flip index space): waits
  /// exactly like finish_flip and returns the peers' shares for it. The
  /// hub refuses — before any state is touched — a share for a node its
  /// sender does not own, a duplicate, a share for a barrier that
  /// already finished, and (here, once the row length is known) a row
  /// of any length other than `row_length`.
  std::vector<ShareRecord> finish_exchange(std::uint64_t barrier,
                                           std::size_t row_length);

  /// First flip at which `peer_shard` exchanges wire traffic with us.
  /// 0 in steady state; a resumed process adopts each survivor's parked
  /// flip from its RECONNECT ACK (UINT64_MAX when the peer already
  /// finished the run and exited — full-local fallback forever). Flips
  /// below this bound keep their locally computed frame copies instead
  /// of adopting wire bytes, which is bitwise identical by the replica
  /// determinism contract.
  std::uint64_t live_from(std::size_t peer_shard) const noexcept;

  SocketHubStats& stats() noexcept;
  const SocketHubStats& stats() const noexcept;

  /// Writes shard-<id>.stats (key=value lines) into the rendezvous
  /// directory — the artifact the parity test and the CLI report read.
  void write_stats() const;

  /// Graceful close: writes stats and unlinks this shard's rendezvous
  /// artifacts (socket / port file). Idempotent; the destructor calls
  /// it.
  void close();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The socket-backed Transport. See the file comment for the replica /
/// adoption / ordering contract.
template <typename Payload>
class SocketTransport final : public Transport<Payload> {
 public:
  using Message = typename Transport<Payload>::Message;

  SocketTransport(std::size_t node_count, const TransportConfig& config,
                  WireCodec<Payload> codec)
      : config_(config),
        codec_(std::move(codec)),
        node_count_(node_count),
        hub_(config, node_count),
        staged_(node_count),
        inbox_(node_count) {
    SNAP_REQUIRE(config_.kind != TransportKind::kSim);
    SNAP_REQUIRE(config_.shards >= 1 && config_.shard_id < config_.shards);
    SNAP_REQUIRE_MSG(codec_.encode != nullptr && codec_.decode != nullptr,
                     "socket transport requires a wire codec");
  }

  TransportKind kind() const noexcept override { return config_.kind; }
  std::size_t node_count() const noexcept override { return node_count_; }

  bool owns(topology::NodeId node) const noexcept {
    return shard_of_node(node, node_count_, config_.shards) ==
           config_.shard_id;
  }

  void post(topology::NodeId from, topology::NodeId to, Payload payload,
            std::size_t wire_bytes, bool state_sync) override {
    this->charge(from, to, wire_bytes, state_sync);
    const std::uint64_t seq = next_seq_++;
    if (owns(from) != owns(to)) {
      crossing_.push_back(
          {seq, from, to, std::move(payload), wire_bytes, state_sync});
      return;
    }
    staged_[to].push_back({seq, Message{from, std::move(payload)}});
  }

  void flip_round() override {
    // A frame belongs to the flip that delivers it, which need not be the
    // index current at post: an exchange barrier may sit in between. So
    // the live_from gates and the wire stamp are decided here.
    for (Crossing& frame : crossing_) {
      if (owns(frame.from)) {
        const std::size_t dest =
            shard_of_node(frame.to, node_count_, config_.shards);
        // Participation gate: flips below the peer's live_from bound ran
        // (or will run) on its full-local replica — the peer already
        // consumed this frame's dead-incarnation twin, so resending
        // would double-deliver. Stats counters are skipped with the send
        // so a crash-free peer's wire parity stays exact.
        if (flip_index_ >= hub_.live_from(dest)) send(frame, dest);
      } else {
        const std::size_t src =
            shard_of_node(frame.from, node_count_, config_.shards);
        if (flip_index_ >= hub_.live_from(src)) {
          // The authoritative copy is in flight from the sender's owner;
          // drop the locally computed one and remember what must arrive.
          expected_.emplace(frame.seq, std::make_pair(frame.from, frame.to));
          continue;
        }
        // Full-local fallback (resumed shard below the peer's parked
        // flip, or the peer finished and exited): keep the locally
        // computed copy — bitwise the wire frame by replica determinism.
      }
      staged_[frame.to].push_back(
          {frame.seq, Message{frame.from, std::move(frame.payload)}});
    }
    crossing_.clear();
    const std::vector<WireRecord> arrived = hub_.finish_flip(flip_index_);
    for (const WireRecord& record : arrived) {
      const auto it = expected_.find(record.seq);
      SNAP_REQUIRE_MSG(
          it != expected_.end() && it->second.first == record.from &&
              it->second.second == record.to,
          "shard " << config_.shard_id << " received wire frame seq "
                   << record.seq << " (" << record.from << "->" << record.to
                   << ") that matches no dropped local copy — shard "
                      "replicas diverged");
      expected_.erase(it);
      std::optional<Payload> payload = codec_.decode(record.payload);
      // Whole-frame adoption: a frame that fails decode (truncated,
      // corrupted, checksum mismatch) aborts the run — it is never
      // half-applied and never silently skipped.
      SNAP_REQUIRE_MSG(payload.has_value(),
                       "shard " << config_.shard_id
                                << " failed to decode wire frame seq "
                                << record.seq << " (" << record.payload.size()
                                << " bytes) from node " << record.from);
      SNAP_REQUIRE(record.to < node_count_ && owns(record.to));
      staged_[record.to].push_back(
          {record.seq, Message{record.from, std::move(*payload)}});
    }
    SNAP_REQUIRE_MSG(expected_.empty(),
                     "shard " << config_.shard_id << " flip " << flip_index_
                              << ": " << expected_.size()
                              << " expected wire frame(s) never arrived");
    for (topology::NodeId node = 0; node < node_count_; ++node) {
      auto& slot = staged_[node];
      // Restore global post order: local and wire entries merge by the
      // replica-aligned sequence number (unique, so ties cannot occur).
      std::sort(slot.begin(), slot.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      inbox_[node].clear();
      inbox_[node].reserve(slot.size());
      for (auto& [seq, message] : slot) {
        inbox_[node].push_back(std::move(message));
      }
      slot.clear();
    }
    ++flip_index_;
  }

  const std::vector<Message>& inbox(
      topology::NodeId node) const override {
    SNAP_REQUIRE(node < node_count_);
    return inbox_[node];
  }

  /// Owned nodes, plus a peer's nodes while that peer is below its
  /// live_from bound (the full-local fallback of a resumed shard).
  bool computes(topology::NodeId node) const noexcept override {
    const std::size_t shard = shard_of_node(node, node_count_, config_.shards);
    return shard == config_.shard_id || flip_index_ < hub_.live_from(shard);
  }

  void exchange_rows(const RowOf& row_of) override {
    // Which rows arrive is fixed before the barrier: a reconnect accepted
    // while parked moves live_from, and with it computes().
    rows_.resize(node_count_);
    adopt_.assign(node_count_, 0);
    std::size_t row_length = 0;
    std::size_t expected = 0;
    for (topology::NodeId node = 0; node < node_count_; ++node) {
      rows_[node] = row_of(node);
      if (rows_[node].empty()) continue;
      SNAP_REQUIRE_MSG(row_length == 0 || rows_[node].size() == row_length,
                       "exchange_rows needs rows of one length");
      row_length = rows_[node].size();
      if (!computes(node)) {
        adopt_[node] = 1;
        ++expected;
      } else if (owns(node)) {
        hub_.send_share(
            {flip_index_, node, {rows_[node].begin(), rows_[node].end()}});
      }
    }
    const std::vector<ShareRecord> arrived =
        hub_.finish_exchange(flip_index_, row_length);
    // The whole set is checked before any row is adopted.
    for (const ShareRecord& share : arrived) {
      SNAP_REQUIRE_MSG(adopt_[share.node] != 0,
                       "shard " << config_.shard_id << " barrier "
                                << flip_index_ << ": unexpected share for node "
                                << share.node);
    }
    SNAP_REQUIRE_MSG(arrived.size() == expected,
                     "shard " << config_.shard_id << " barrier " << flip_index_
                              << ": " << arrived.size() << " of " << expected
                              << " expected share(s) arrived");
    for (const ShareRecord& share : arrived) {
      std::copy(share.values.begin(), share.values.end(),
                rows_[share.node].begin());
    }
    ++flip_index_;
  }

  const SocketHubStats& wire_stats() const noexcept { return hub_.stats(); }

  /// Writes shard-<id>.stats into the rendezvous dir (see SocketHub).
  void write_stats() const { hub_.write_stats(); }

  /// Replicated wire position: the global post sequence counter and the
  /// flip index. A resumed process restores these from the checkpoint
  /// so every frame it posts after the restore carries exactly the seq
  /// its peers' expected-seq maps predict.
  void save_wire_state(common::ByteWriter& writer) const override {
    transfer(*this, writer);
  }
  bool restore_wire_state(common::ByteReader& reader) override {
    SNAP_REQUIRE_MSG(crossing_.empty() && expected_.empty() &&
                         next_seq_ == 0 && flip_index_ == 0,
                     "wire state must be restored before any post");
    transfer(*this, reader);
    return reader.ok();
  }

 private:
  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    fields(io, self.next_seq_, self.flip_index_);
  }

  /// A cross-shard frame posted since the last flip.
  struct Crossing {
    std::uint64_t seq = 0;
    topology::NodeId from = 0;
    topology::NodeId to = 0;
    Payload payload;
    std::size_t wire_bytes = 0;
    bool state_sync = false;
  };

  /// This shard is the frame's authoritative sender: puts the real bytes
  /// on the wire toward the receiver's owner.
  void send(const Crossing& frame, std::size_t dest) {
    WireRecord record;
    record.flip = flip_index_;
    record.seq = frame.seq;
    record.from = frame.from;
    record.to = frame.to;
    record.state_sync = frame.state_sync;
    record.charged_bytes = frame.wire_bytes;
    record.payload = codec_.encode(frame.payload);
    if (frame.wire_bytes > 0) {
      hub_.stats().charged_bytes_sent += frame.wire_bytes;
      hub_.stats().payload_bytes_sent += record.payload.size();
      if (record.payload.size() != frame.wire_bytes) {
        ++hub_.stats().mismatched_frames;
      }
    }
    hub_.send_frame(dest, record);
  }

  TransportConfig config_;
  WireCodec<Payload> codec_;
  std::size_t node_count_ = 0;
  SocketHub hub_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t flip_index_ = 0;
  /// Cross-shard frames awaiting their flip (see flip_round).
  std::vector<Crossing> crossing_;
  /// Per-destination staging: (seq, message), merged and sorted at flip.
  std::vector<std::vector<std::pair<std::uint64_t, Message>>> staged_;
  std::vector<std::vector<Message>> inbox_;
  /// exchange_rows scratch: each node's row, and whether it arrives.
  std::vector<std::span<double>> rows_;
  std::vector<std::uint8_t> adopt_;
  /// seq -> (from, to) of dropped local copies awaiting their wire twin.
  std::map<std::uint64_t, std::pair<topology::NodeId, topology::NodeId>>
      expected_;
};

}  // namespace snap::net
