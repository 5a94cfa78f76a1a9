#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "common/binary_io.hpp"
#include "common/file_io.hpp"
#include "net/reassembly.hpp"

namespace snap::net {
namespace {

// How long a blocked shard waits for peer bytes before declaring the
// mesh dead (a peer crashed mid-run); generous next to any test budget.
constexpr int kPollTimeoutMs = 60'000;

// How long send_all waits for POLLOUT after draining its read side.
// Short: the wait is a spin-step inside a retry loop, not a deadline.
constexpr int kSendPollTimeoutMs = 50;

void sleep_seconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

std::uint8_t record_tag(std::span<const std::byte> body) {
  return body.empty() ? 0 : static_cast<std::uint8_t>(body[0]);
}

}  // namespace

struct SocketHub::Impl {
  TransportConfig config;
  std::size_t node_count = 0;
  int listen_fd = -1;
  /// fd per peer shard; -1 at our own index.
  std::vector<int> peer_fds;
  std::vector<FrameReassembler> reassemblers;
  /// Frames received but not yet claimed by a finish_flip, keyed by flip.
  std::map<std::uint64_t, std::vector<WireRecord>> pending_frames;
  /// Shares received but not yet claimed by a finish_exchange, keyed by
  /// barrier, then node (one share per node and barrier).
  std::map<std::uint64_t, std::map<topology::NodeId, ShareRecord>>
      pending_shares;
  /// Every barrier index below this one has finished.
  std::uint64_t next_barrier = 0;
  /// Which peer shards' barriers arrived, per flip.
  std::map<std::uint64_t, std::set<std::size_t>> barriers_seen;
  /// Peers whose connection is gone — orderly close and crash both land
  /// here; finish_flip disambiguates (barrier present for the flip we
  /// need = finished legitimately; missing = crashed, park for respawn).
  std::vector<bool> peer_eof;
  /// First flip at which each peer exchanges wire traffic with us.
  /// 0 in steady state; see SocketHub::live_from.
  std::vector<std::uint64_t> live_from;
  /// Highest RECONNECT incarnation accepted per peer (rendezvous = 0);
  /// a replacement connection must strictly supersede it.
  std::vector<std::uint64_t> incarnation_seen;
  /// One framed FRAME/SHARE/BARRIER image destined for a peer, kept for
  /// replay until the peer acknowledges the flip (barrier/heartbeat).
  struct LoggedSend {
    std::uint64_t flip = 0;
    std::vector<std::byte> bytes;
  };
  /// Per-peer replay log, appended unconditionally on every FRAME, SHARE
  /// and BARRIER send — even while the peer's link is down, so a respawned
  /// incarnation receives records we never physically shipped.
  std::vector<std::deque<LoggedSend>> sent_log;
  SocketHubStats stats;
  std::string socket_path;  ///< our shard-<id>.sock (UDS only)
  std::string port_path;    ///< our shard-<id>.port (TCP only)
  std::string pid_path;     ///< our shard-<id>.pid liveness stamp
  bool closed = false;
  /// False during the rendezvous handshake: send_all's deadlock drain
  /// then parks drained records in the reassembler (for read_one)
  /// instead of dispatching them as steady-state traffic, and the
  /// listener still takes HELLOs.
  bool steady = false;

  std::size_t peer_count() const noexcept {
    return config.shards > 0 ? config.shards - 1 : 0;
  }

  std::string artifact(std::string_view stem) const {
    std::ostringstream os;
    os << config.rendezvous_dir << "/shard-" << config.shard_id << '.'
       << stem;
    return os.str();
  }

  std::string peer_artifact(std::size_t shard, std::string_view stem) const {
    std::ostringstream os;
    os << config.rendezvous_dir << "/shard-" << shard << '.' << stem;
    return os.str();
  }

  /// Tears down a peer link after a crash or close. The reassembler is
  /// reset too: a crash can sever the stream mid-record, and the
  /// respawned incarnation re-sends whole records from its replay.
  void mark_link_down(std::size_t peer_shard) {
    if (peer_fds[peer_shard] >= 0) {
      ::close(peer_fds[peer_shard]);
      peer_fds[peer_shard] = -1;
    }
    peer_eof[peer_shard] = true;
    reassemblers[peer_shard] = FrameReassembler();
  }

  bool participates(std::size_t peer_shard, std::uint64_t flip) const {
    return flip >= live_from[peer_shard];
  }

  /// Drains whatever is already readable on every live peer link
  /// without blocking. This is send_all's deadlock-breaker: when two
  /// shards each push a frame larger than the kernel socket buffers at
  /// the same time, both their blocking writes stall until someone
  /// reads — so the writer reads. Records are dispatched only in
  /// steady state; during the rendezvous handshake drained bytes stay
  /// parked in the reassembler for read_one to pop.
  void drain_readable() {
    for (std::size_t s = 0; s < config.shards; ++s) {
      if (s == config.shard_id) continue;
      while (peer_fds[s] >= 0 && receive(s, MSG_DONTWAIT)) {
      }
    }
  }

  /// One recv on `peer_shard`'s live link: the bytes go to its
  /// reassembler, and in steady state every whole record is dispatched.
  /// EOF or a reset marks the link down. An orderly finish and a crash
  /// look identical here; finish_flip tells them apart by whether the
  /// peer's barrier for the flip it needs already arrived. Returns false
  /// only when a nonblocking call found nothing to read.
  bool receive(std::size_t peer_shard, int flags) {
    std::byte chunk[65536];
    ssize_t n = 0;
    do {
      n = ::recv(peer_fds[peer_shard], chunk, sizeof chunk, flags);
    } while (n < 0 && errno == EINTR);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    if (n == 0 || (n < 0 && errno == ECONNRESET)) {
      mark_link_down(peer_shard);
      return true;
    }
    SNAP_REQUIRE_MSG(n > 0, "recv from peer shard " << peer_shard
                                                    << " failed: "
                                                    << std::strerror(errno));
    stats.os_bytes_received += static_cast<std::uint64_t>(n);
    reassemblers[peer_shard].feed({chunk, static_cast<std::size_t>(n)});
    if (steady) {
      while (auto record = reassemblers[peer_shard].next()) {
        dispatch_record(peer_shard, *record);
      }
    }
    return true;
  }

  void send_all(std::size_t peer_shard, std::span<const std::byte> bytes) {
    SNAP_REQUIRE_MSG(peer_fds[peer_shard] >= 0,
                     "no link to peer shard " << peer_shard);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      // Re-fetch each pass: the drain below can observe the peer's
      // crash and close the fd under us.
      const int fd = peer_fds[peer_shard];
      if (fd < 0) return;
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Our send buffer to this peer is full. The canonical cause is
        // a send-send deadlock: the peer is mid-write of a large frame
        // to us and will not read until it finishes. Empty our read
        // side so its write can drain, then wait for writability.
        drain_readable();
        if (peer_fds[peer_shard] < 0) return;
        pollfd pfd{peer_fds[peer_shard], POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, kSendPollTimeoutMs);
        SNAP_REQUIRE_MSG(ready >= 0 || errno == EINTR,
                         "poll for writability to peer shard "
                             << peer_shard << " failed: "
                             << std::strerror(errno));
        continue;
      }
      if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
        // The peer crashed under us. Anything replayable is already
        // in the sent log; drop the write and let finish_flip park
        // until the respawned incarnation reconnects.
        mark_link_down(peer_shard);
        return;
      }
      SNAP_REQUIRE_MSG(false, "send to peer shard "
                                  << peer_shard << " failed: "
                                  << std::strerror(errno));
    }
    stats.os_bytes_sent += bytes.size();
  }

  /// Appends the framed record to the peer's replay log, then ships it
  /// if the link is up. The log is authoritative: a record logged while
  /// the peer is down reaches it through the reconnect replay flush.
  void log_send(std::size_t peer_shard, std::uint64_t flip,
                std::vector<std::byte>&& framed) {
    sent_log[peer_shard].push_back({flip, std::move(framed)});
    // Written from the log entry itself: send_all's drain can prune only
    // flips the peer has finished, never the one being sent, and a
    // deque's pop_front leaves references to the other entries valid.
    if (peer_fds[peer_shard] >= 0) {
      send_all(peer_shard, sent_log[peer_shard].back().bytes);
    }
  }

  /// Drops replay-log entries the peer can never need again: it proved
  /// (barrier or heartbeat) that it fully consumed every flip below
  /// `flip`.
  void prune_sent_log(std::size_t peer_shard, std::uint64_t flip) {
    auto& log = sent_log[peer_shard];
    while (!log.empty() && log.front().flip < flip) log.pop_front();
  }

  template <class R>
  void send_record(std::size_t peer_shard, const R& record) {
    send_all(peer_shard, encode_framed(record));
  }

  /// Blocking read of the next whole record on `fd`, fed through
  /// `reassembler`; nullopt when the stream ends first.
  std::optional<std::vector<std::byte>> read_one(
      int fd, FrameReassembler& reassembler) {
    while (true) {
      if (auto record = reassembler.next()) return record;
      std::byte chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      stats.os_bytes_received += static_cast<std::uint64_t>(n);
      reassembler.feed({chunk, static_cast<std::size_t>(n)});
    }
  }

  RunShape own_shape() const {
    return {config.shard_id, config.shards, node_count};
  }

  /// Why a handshake's run shape cannot come from a peer of this run;
  /// empty when it can.
  std::string shape_refusal(const RunShape& shape) const {
    std::ostringstream why;
    if (shape.version != kProtocolVersion) {
      why << "speaks protocol v" << shape.version << ", expected v"
          << kProtocolVersion;
    } else if (shape.shard >= config.shards ||
               shape.shard == config.shard_id) {
      why << "claims shard id " << shape.shard;
    } else if (shape.shards != config.shards || shape.nodes != node_count) {
      why << "disagrees on run shape: " << shape.shards << " shards / "
          << shape.nodes << " nodes vs " << config.shards << " / "
          << node_count;
    }
    return why.str();
  }

  /// The sender's shard id from a rendezvous HELLO; a hard error on any
  /// refusal, since a peer that cannot join leaves no run to fall back to.
  std::size_t require_hello(std::span<const std::byte> body) const {
    const std::optional<HelloRecord> hello = decode_record<HelloRecord>(body);
    SNAP_REQUIRE_MSG(hello.has_value(), "malformed HELLO from a peer shard");
    const std::string refusal = shape_refusal(hello->shape);
    SNAP_REQUIRE_MSG(refusal.empty(), "HELLO refused: peer " << refusal);
    return hello->shape.shard;
  }

  // --- rendezvous ---------------------------------------------------

  /// Startup sweep of leftovers from a dead run (crash leaves .sock /
  /// .port / .pid behind; only graceful close unlinks them). The pid
  /// stamp arbitrates: artifacts owned by a live process mean a second
  /// launch is about to clobber a running shard — refuse loudly.
  void sweep_stale_artifacts() {
    const std::string pid_file = artifact("pid");
    long owner = 0;
    if (std::ifstream in(pid_file); in >> owner) {
      if (owner > 0 && static_cast<pid_t>(owner) != ::getpid() &&
          (::kill(static_cast<pid_t>(owner), 0) == 0 || errno == EPERM)) {
        SNAP_REQUIRE_MSG(false, "rendezvous artifacts for shard "
                                    << config.shard_id
                                    << " are owned by live pid " << owner
                                    << " — refusing to clobber a running "
                                       "shard");
      }
    }
    ::unlink(artifact("sock").c_str());
    ::unlink(artifact("port").c_str());
    ::unlink(pid_file.c_str());
  }

  /// Publishes a one-line rendezvous stamp atomically: a peer must
  /// never read a half-written pid or port.
  static void publish(const std::string& path, long value) {
    const std::string line = std::to_string(value) + '\n';
    SNAP_REQUIRE_MSG(
        common::write_file_atomic(path, std::as_bytes(std::span(line))),
        "cannot write " << path);
  }

  void bind_and_publish() {
    sweep_stale_artifacts();
    if (config.kind == TransportKind::kUds) {
      socket_path = artifact("sock");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      SNAP_REQUIRE_MSG(socket_path.size() < sizeof(addr.sun_path),
                       "rendezvous path too long for a Unix socket: "
                           << socket_path);
      std::memcpy(addr.sun_path, socket_path.c_str(),
                  socket_path.size() + 1);
      listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      SNAP_REQUIRE_MSG(listen_fd >= 0,
                       "socket(AF_UNIX): " << std::strerror(errno));
      SNAP_REQUIRE_MSG(
          ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof addr) == 0,
          "bind(" << socket_path << "): " << std::strerror(errno));
    } else {
      listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      SNAP_REQUIRE_MSG(listen_fd >= 0,
                       "socket(AF_INET): " << std::strerror(errno));
      const int one = 1;
      ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = 0;  // ephemeral; published via the port file
      SNAP_REQUIRE_MSG(
          ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof addr) == 0,
          "bind(tcp loopback): " << std::strerror(errno));
      socklen_t len = sizeof addr;
      SNAP_REQUIRE(::getsockname(listen_fd,
                                 reinterpret_cast<sockaddr*>(&addr),
                                 &len) == 0);
      port_path = artifact("port");
      publish(port_path, ntohs(addr.sin_port));
    }
    SNAP_REQUIRE_MSG(
        ::listen(listen_fd, static_cast<int>(config.shards) + 1) == 0,
        "listen: " << std::strerror(errno));
    pid_path = artifact("pid");
    publish(pid_path, ::getpid());
  }

  int try_connect(std::size_t peer_shard) {
    if (config.kind == TransportKind::kUds) {
      const std::string path = peer_artifact(peer_shard, "sock");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (path.size() >= sizeof(addr.sun_path)) {
        SNAP_REQUIRE_MSG(false, "rendezvous path too long: " << path);
      }
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      SNAP_REQUIRE(fd >= 0);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0) {
        return fd;
      }
      ::close(fd);
      return -1;
    }
    // TCP: the peer's ephemeral port may not be published yet.
    std::ifstream in(peer_artifact(peer_shard, "port"));
    int port = 0;
    if (!(in >> port) || port <= 0 || port > 65535) return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SNAP_REQUIRE(fd >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    ::close(fd);
    return -1;
  }

  /// Dials `peer_shard` on the bounded_backoff schedule, at most
  /// max_retries retries after the initial attempt. Returns the
  /// connected fd, or -1 once the retries are spent; the caller decides
  /// what an unreachable peer means.
  int dial(std::size_t peer_shard) {
    for (std::size_t attempt = 0;; ++attempt) {
      const int fd = try_connect(peer_shard);
      if (fd >= 0 || attempt >= config.max_retries) return fd;
      sleep_seconds(bounded_backoff(config, attempt));
    }
  }

  /// Cold-start rendezvous with a lower-numbered peer: dial, HELLO, and
  /// require its HELLO back. An unreachable peer is a hard error.
  void connect_with_backoff(std::size_t peer_shard) {
    const int fd = dial(peer_shard);
    SNAP_REQUIRE_MSG(fd >= 0, "shard " << config.shard_id
                                       << " could not reach peer shard "
                                       << peer_shard << " after "
                                       << config.max_retries << " retries");
    peer_fds[peer_shard] = fd;
    send_record(peer_shard, HelloRecord{own_shape()});
    const std::optional<std::vector<std::byte>> reply =
        read_one(fd, reassemblers[peer_shard]);
    SNAP_REQUIRE_MSG(reply.has_value(), "peer shard "
                                            << peer_shard
                                            << " closed during handshake");
    const std::size_t shard = require_hello(*reply);
    SNAP_REQUIRE_MSG(shard == peer_shard, "expected HELLO from shard "
                                              << peer_shard << ", got shard "
                                              << shard);
    // The handshake read may have pulled post-HELLO records (an eager
    // peer's first frames/barrier) into the reassembler; surface them
    // now — pump_once only drains after fresh bytes.
    while (auto record = reassemblers[peer_shard].next()) {
      dispatch_record(peer_shard, *record);
    }
  }

  void accept_peers() {
    const std::size_t expected = config.shards - config.shard_id - 1;
    std::set<std::size_t> greeted;
    while (greeted.size() < expected) {
      pollfd pfd{listen_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kPollTimeoutMs);
      SNAP_REQUIRE_MSG(ready > 0, "shard " << config.shard_id
                                           << " timed out waiting for "
                                           << (expected - greeted.size())
                                           << " peer connection(s)");
      // No flip has completed anywhere yet (rounds need barriers from
      // every shard), so a worker killed and respawned mid-rendezvous
      // reconnects at flip 0.
      if (const std::optional<std::size_t> shard = accept_handshake(0);
          shard.has_value() && *shard > config.shard_id) {
        greeted.insert(*shard);
      }
    }
  }

  /// Accepts one inbound connection and answers its handshake: a
  /// RECONNECT at any time, a HELLO only during the rendezvous. Returns
  /// the installed peer shard, or nullopt when the connector died first
  /// or its RECONNECT was refused (fd closed either way). A refused
  /// HELLO is a hard error.
  std::optional<std::size_t> accept_handshake(std::uint64_t flip) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    SNAP_REQUIRE_MSG(fd >= 0 || steady, "accept: " << std::strerror(errno));
    if (fd < 0) return std::nullopt;
    if (config.kind == TransportKind::kTcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    // The connector speaks first and sends nothing more until answered,
    // so its handshake is the whole stream so far.
    FrameReassembler reassembler;
    const std::optional<std::vector<std::byte>> body =
        read_one(fd, reassembler);
    const bool alone = reassembler.buffered_bytes() == 0;
    if (body.has_value() && !steady &&
        record_tag(*body) != ReconnectRecord::kTag) {
      const std::size_t shard = require_hello(*body);
      SNAP_REQUIRE_MSG(shard > config.shard_id,
                       "inbound HELLO from unexpected shard id " << shard);
      SNAP_REQUIRE_MSG(peer_fds[shard] < 0,
                       "duplicate connection from shard " << shard);
      SNAP_REQUIRE_MSG(alone, "shard " << shard
                                       << " sent bytes behind its HELLO");
      peer_fds[shard] = fd;
      send_record(shard, HelloRecord{own_shape()});
      return shard;
    }
    const std::optional<ReconnectRecord> reconnect =
        body.has_value() ? decode_record<ReconnectRecord>(*body)
                         : std::nullopt;
    if (!reconnect.has_value() || !alone ||
        !shape_refusal(reconnect->shape).empty() ||
        !reconnect_supersedes(incarnation_seen[reconnect->shape.shard],
                              reconnect->incarnation)) {
      ::close(fd);
      return std::nullopt;
    }
    install_reconnect(fd, *reconnect, flip);
    return reconnect->shape.shard;
  }

  // --- steady state -------------------------------------------------

  template <class R>
  R require_record(std::size_t peer_shard, std::span<const std::byte> body,
                   const char* what) {
    std::optional<R> record = decode_record<R>(body);
    SNAP_REQUIRE_MSG(record.has_value(), "malformed " << what
                                                      << " record from peer "
                                                         "shard "
                                                      << peer_shard);
    return std::move(*record);
  }

  void dispatch_record(std::size_t peer_shard,
                       std::span<const std::byte> body) {
    const std::uint8_t type = record_tag(body);
    if (type == WireRecord::kTag) {
      WireRecord record = require_record<WireRecord>(peer_shard, body, "frame");
      ++stats.frames_received;
      pending_frames[record.flip].push_back(std::move(record));
      return;
    }
    if (type == ShareRecord::kTag) {
      ShareRecord share =
          require_record<ShareRecord>(peer_shard, body, "share");
      SNAP_REQUIRE_MSG(
          share.node < node_count &&
              shard_of_node(share.node, node_count, config.shards) ==
                  peer_shard,
          "peer shard " << peer_shard << " shared node " << share.node
                        << ", which it does not own");
      SNAP_REQUIRE_MSG(share.barrier >= next_barrier,
                       "peer shard " << peer_shard << " shared node "
                                     << share.node << " for barrier "
                                     << share.barrier
                                     << ", which already finished");
      auto& slot = pending_shares[share.barrier];
      SNAP_REQUIRE_MSG(!slot.contains(share.node),
                       "duplicate share of node " << share.node
                                                  << " for barrier "
                                                  << share.barrier);
      const topology::NodeId node = share.node;
      slot.emplace(node, std::move(share));
      return;
    }
    if (type == BarrierRecord::kTag) {
      const std::uint64_t flip =
          require_record<BarrierRecord>(peer_shard, body, "barrier").flip;
      const bool fresh = barriers_seen[flip].insert(peer_shard).second;
      SNAP_REQUIRE_MSG(fresh, "duplicate barrier for flip "
                                  << flip << " from peer shard "
                                  << peer_shard);
      // A barrier for `flip` proves the peer consumed every earlier
      // flip in full; its replay log can forget them.
      prune_sent_log(peer_shard, flip);
      return;
    }
    if (type == HeartbeatRecord::kTag) {
      prune_sent_log(
          peer_shard,
          require_record<HeartbeatRecord>(peer_shard, body, "heartbeat").flip);
      return;
    }
    // HELLO / RECONNECT / RECONNECT_ACK are connection-scoped handshakes;
    // seen mid-stream they are a replay or a duplicate and reject the
    // stream whole.
    SNAP_REQUIRE_MSG(false, "unexpected record type "
                                << static_cast<int>(type)
                                << " from peer shard " << peer_shard);
  }

  /// Waits up to `timeout_ms` for peer bytes or an inbound RECONNECT on
  /// the listener; reads and surfaces whatever arrived. Returns false
  /// on a quiet timeout (nothing readable at all) so finish_flip can
  /// run its heartbeat / park-deadline accounting.
  bool pump_once(std::uint64_t flip, int timeout_ms) {
    constexpr std::size_t kListener = static_cast<std::size_t>(-1);
    std::vector<pollfd> pfds;
    std::vector<std::size_t> owners;
    for (std::size_t s = 0; s < config.shards; ++s) {
      if (peer_fds[s] >= 0) {
        pfds.push_back({peer_fds[s], POLLIN, 0});
        owners.push_back(s);
      }
    }
    // The listener stays in the set through steady state: a crashed
    // peer's respawn announces itself here, possibly while every
    // direct link is down.
    if (listen_fd >= 0) {
      pfds.push_back({listen_fd, POLLIN, 0});
      owners.push_back(kListener);
    }
    SNAP_REQUIRE_MSG(!pfds.empty(),
                     "shard " << config.shard_id
                              << " is waiting on peers but every link "
                                 "and the listener are closed");
    const int ready = ::poll(pfds.data(),
                             static_cast<nfds_t>(pfds.size()),
                             timeout_ms);
    if (ready == 0) return false;
    if (ready < 0 && errno == EINTR) return false;
    SNAP_REQUIRE_MSG(ready > 0,
                     "poll failed: " << std::strerror(errno));
    bool progressed = false;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (owners[i] == kListener) {
        accept_handshake(flip);
        progressed = true;
        continue;
      }
      const std::size_t shard = owners[i];
      // accept_handshake may have replaced this fd mid-pass; the event
      // belonged to the dead incarnation's socket.
      if (peer_fds[shard] != pfds[i].fd) continue;
      receive(shard, 0);
      progressed = true;
    }
    return progressed;
  }

  /// Installs a respawned shard's replacement connection, accepted
  /// while we are parked at `flip` (0 during the rendezvous).
  void install_reconnect(int fd, const ReconnectRecord& hello,
                         std::uint64_t flip) {
    const std::size_t shard = hello.shape.shard;
    // A fast respawn can outrun our EOF detection of the old socket.
    if (peer_fds[shard] >= 0) mark_link_down(shard);
    // First flip the resumed replica exchanges wire traffic for: the
    // one we are parked at — or the next, if the dead incarnation
    // already delivered this flip in full (its barrier arrived, and
    // frames precede the barrier in FIFO order).
    const std::uint64_t resume_from =
        flip + (barriers_seen[flip].contains(shard) ? 1 : 0);
    // Scrub the dead incarnation's traffic at and above the resume
    // point — the respawn replays it bit for bit, and keeping both
    // copies would double-deliver frames and trip the duplicate-
    // barrier and duplicate-share checks.
    for (auto& [pending_flip, records] : pending_frames) {
      if (pending_flip < resume_from) continue;
      std::erase_if(records, [&](const WireRecord& record) {
        return shard_of_node(record.from, node_count, config.shards) ==
               shard;
      });
    }
    std::erase_if(pending_frames,
                  [](const auto& entry) { return entry.second.empty(); });
    for (auto& [barrier, shares] : pending_shares) {
      if (barrier < resume_from) continue;
      std::erase_if(shares, [&](const auto& entry) {
        return shard_of_node(entry.first, node_count, config.shards) == shard;
      });
    }
    std::erase_if(pending_shares,
                  [](const auto& entry) { return entry.second.empty(); });
    for (auto& [barrier_flip, seen] : barriers_seen) {
      if (barrier_flip >= resume_from) seen.erase(shard);
    }
    peer_fds[shard] = fd;
    peer_eof[shard] = false;
    reassemblers[shard] = FrameReassembler();
    incarnation_seen[shard] = hello.incarnation;
    // Also lifts a write-off: a peer we had given up on (live_from =
    // UINT64_MAX) is live again from here on.
    live_from[shard] = resume_from;
    ++stats.reconnects;
    send_record(shard, ReconnectAckRecord{config.shard_id, resume_from,
                                          hello.incarnation});
    // Replay everything the dead incarnation missed, oldest first.
    // Snapshot the log: send_all's deadlock drain can dispatch a
    // barrier from this very peer mid-flush, and the resulting prune
    // would pop entries out from under a live iterator. The peer can
    // only acknowledge flips already flushed (the log is flip-ordered
    // and replayed in order), so a prune never drops unvisited
    // entries — the snapshot and the live log agree ahead of us.
    const std::deque<LoggedSend> replay = sent_log[shard];
    for (const LoggedSend& entry : replay) {
      if (peer_fds[shard] < 0) break;  // died again mid-flush
      if (entry.flip >= resume_from) send_all(shard, entry.bytes);
    }
  }

  /// Rendezvous for a respawned process: dial every peer, announce the
  /// new incarnation, adopt each survivor's parked flip from its ACK.
  /// An unreachable peer (rendezvous artifacts gone) finished the run
  /// while we were dead — it is written off to full-local fallback.
  void resume_rendezvous() {
    for (std::size_t s = 0; s < config.shards; ++s) {
      if (s == config.shard_id) continue;
      const int fd = dial(s);
      if (fd < 0) {
        live_from[s] = std::numeric_limits<std::uint64_t>::max();
        continue;
      }
      peer_fds[s] = fd;
      send_record(s, ReconnectRecord{own_shape(), config.incarnation});
      const std::optional<std::vector<std::byte>> ack_body =
          read_one(fd, reassemblers[s]);
      if (!ack_body.has_value()) {
        // Raced the peer's exit, or it rejected us as stale: same
        // write-off as an unreachable peer.
        mark_link_down(s);
        live_from[s] = std::numeric_limits<std::uint64_t>::max();
        continue;
      }
      const std::optional<ReconnectAckRecord> ack =
          decode_record<ReconnectAckRecord>(*ack_body);
      SNAP_REQUIRE_MSG(ack.has_value() && ack->shard == s &&
                           ack->incarnation == config.incarnation,
                       "malformed RECONNECT ACK from peer shard " << s);
      live_from[s] = ack->parked_flip;
      ++stats.reconnects;
      // The survivor's replay flush may already sit behind the ACK.
      while (auto record = reassemblers[s].next()) {
        dispatch_record(s, *record);
      }
    }
  }

  /// Sends BARRIER for `flip` to every participating peer and parks
  /// until each one's barrier for it arrived (see finish_flip).
  void await_barrier(std::uint64_t flip);

  /// A record filed under an already-finished index would have been
  /// consumed by its finish; anything older still pending is a protocol
  /// bug.
  void require_nothing_stale(std::uint64_t flip) const {
    SNAP_REQUIRE_MSG(
        pending_frames.empty() || pending_frames.begin()->first > flip,
        "stale frames for flip " << pending_frames.begin()->first
                                 << " left behind at flip " << flip);
    SNAP_REQUIRE_MSG(
        pending_shares.empty() || pending_shares.begin()->first > flip,
        "stale shares for barrier " << pending_shares.begin()->first
                                    << " left behind at flip " << flip);
  }
};

SocketHub::SocketHub(const TransportConfig& config, std::size_t node_count)
    : impl_(std::make_unique<Impl>()) {
  SNAP_REQUIRE(config.kind != TransportKind::kSim);
  SNAP_REQUIRE(config.shards >= 1 && config.shard_id < config.shards);
  SNAP_REQUIRE_MSG(config.shards == 1 || !config.rendezvous_dir.empty(),
                   "multi-shard transport needs a rendezvous directory");
  SNAP_REQUIRE_MSG(node_count >= config.shards,
                   "more shards (" << config.shards << ") than nodes ("
                                   << node_count << ")");
  impl_->config = config;
  impl_->node_count = node_count;
  impl_->peer_fds.assign(config.shards, -1);
  impl_->reassemblers.resize(config.shards);
  impl_->peer_eof.assign(config.shards, false);
  impl_->live_from.assign(config.shards, 0);
  impl_->incarnation_seen.assign(config.shards, 0);
  impl_->sent_log.resize(config.shards);
  if (config.shards == 1) {
    impl_->steady = true;
    return;  // degenerate mesh: no peers
  }
  impl_->bind_and_publish();
  if (config.resume) {
    // Respawned process: every surviving peer is parked with a live
    // listener — dial them all and announce the new incarnation.
    impl_->resume_rendezvous();
    impl_->steady = true;
    return;
  }
  // Dial lower-numbered shards (their listeners exist or will shortly);
  // higher-numbered shards dial us.
  for (std::size_t s = 0; s < config.shard_id; ++s) {
    impl_->connect_with_backoff(s);
  }
  impl_->accept_peers();
  impl_->steady = true;
}

SocketHub::~SocketHub() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; close() errors are best-effort here.
  }
}

std::size_t SocketHub::shard_id() const noexcept {
  return impl_->config.shard_id;
}

std::size_t SocketHub::shard_count() const noexcept {
  return impl_->config.shards;
}

void SocketHub::send_frame(std::size_t peer_shard,
                           const WireRecord& record) {
  SNAP_REQUIRE(peer_shard < impl_->config.shards &&
               peer_shard != impl_->config.shard_id);
  impl_->log_send(peer_shard, record.flip, encode_framed(record));
  ++impl_->stats.frames_sent;
}

std::uint64_t SocketHub::live_from(std::size_t peer_shard) const noexcept {
  return peer_shard < impl_->live_from.size() ? impl_->live_from[peer_shard]
                                              : 0;
}

void SocketHub::send_share(const ShareRecord& record) {
  std::vector<std::byte> framed = encode_framed(record);
  // The last participating peer's log takes the encoded buffer itself;
  // only the others (with three or more shards) get a copy.
  std::size_t last = impl_->config.shards;
  for (std::size_t s = 0; s < impl_->config.shards; ++s) {
    if (s != impl_->config.shard_id && impl_->participates(s, record.barrier)) {
      last = s;
    }
  }
  for (std::size_t s = 0; s < impl_->config.shards; ++s) {
    if (s == impl_->config.shard_id) continue;
    if (!impl_->participates(s, record.barrier)) continue;
    impl_->log_send(s, record.barrier,
                    s == last ? std::move(framed)
                              : std::vector<std::byte>(framed));
    ++impl_->stats.share_records_sent;
    impl_->stats.share_bytes_sent += sizeof(double) * record.values.size();
  }
}

void SocketHub::Impl::await_barrier(std::uint64_t flip) {
  // Barrier to every participating peer, logged before the write so a
  // peer that is down (or dies mid-write) still receives it from the
  // reconnect replay flush.
  const std::vector<std::byte> barrier = encode_framed(BarrierRecord{flip});
  std::size_t participating = 0;
  for (std::size_t s = 0; s < config.shards; ++s) {
    if (s == config.shard_id) continue;
    if (!participates(s, flip)) continue;
    ++participating;
    log_send(s, flip, std::vector<std::byte>(barrier));
  }
  if (participating > 0) {
    const std::vector<std::byte> heartbeat =
        encode_framed(HeartbeatRecord{flip});
    const int interval_ms =
        std::max(1, static_cast<int>(config.heartbeat_interval_s * 1000.0));
    double quiet_s = 0.0;
    while (barriers_seen[flip].size() < participating) {
      if (pump_once(flip, interval_ms)) {
        quiet_s = 0.0;  // any traffic (or a reconnect) resets the clock
        continue;
      }
      // Quiet interval: beacon our park position to the live peers (it
      // prunes their replay logs) and enforce the hard deadline.
      quiet_s += config.heartbeat_interval_s;
      SNAP_REQUIRE_MSG(quiet_s < config.park_timeout_s,
                       "shard " << config.shard_id << " parked at flip "
                                << flip << " for " << quiet_s
                                << "s with no traffic (crashed peer never "
                                   "respawned?)");
      for (std::size_t s = 0; s < config.shards; ++s) {
        if (s == config.shard_id || peer_fds[s] < 0) continue;
        send_all(s, heartbeat);
      }
    }
  }
  barriers_seen.erase(flip);
  next_barrier = flip + 1;
}

std::vector<WireRecord> SocketHub::finish_flip(std::uint64_t flip) {
  ++impl_->stats.flips;
  impl_->await_barrier(flip);
  SNAP_REQUIRE_MSG(!impl_->pending_shares.contains(flip),
                   "share records at flip " << flip
                                            << ", which exchanges no rows");
  std::vector<WireRecord> frames;
  if (const auto it = impl_->pending_frames.find(flip);
      it != impl_->pending_frames.end()) {
    frames = std::move(it->second);
    impl_->pending_frames.erase(it);
  }
  impl_->require_nothing_stale(flip);
  return frames;
}

std::vector<ShareRecord> SocketHub::finish_exchange(std::uint64_t barrier,
                                                    std::size_t row_length) {
  impl_->await_barrier(barrier);
  SNAP_REQUIRE_MSG(!impl_->pending_frames.contains(barrier),
                   "frame records at barrier " << barrier
                                               << ", which only exchanges "
                                                  "rows");
  std::vector<ShareRecord> shares;
  if (const auto it = impl_->pending_shares.find(barrier);
      it != impl_->pending_shares.end()) {
    // Length first, for the whole set: nothing is handed out unless
    // every row fits.
    for (const auto& [node, share] : it->second) {
      SNAP_REQUIRE_MSG(share.values.size() == row_length,
                       "share of node " << node << " for barrier " << barrier
                                        << " carries "
                                        << share.values.size()
                                        << " values, expected "
                                        << row_length);
    }
    shares.reserve(it->second.size());
    for (auto& [node, share] : it->second) shares.push_back(std::move(share));
    impl_->pending_shares.erase(it);
  }
  impl_->require_nothing_stale(barrier);
  return shares;
}

SocketHubStats& SocketHub::stats() noexcept { return impl_->stats; }

const SocketHubStats& SocketHub::stats() const noexcept {
  return impl_->stats;
}

void SocketHub::write_stats() const {
  if (impl_->config.rendezvous_dir.empty()) return;
  std::ofstream out(impl_->artifact("stats"), std::ios::trunc);
  if (!out.good()) return;  // stats are advisory; never fail the run
  const SocketHubStats& s = impl_->stats;
  out << "shard=" << impl_->config.shard_id << '\n'
      << "shards=" << impl_->config.shards << '\n'
      << "frames_sent=" << s.frames_sent << '\n'
      << "frames_received=" << s.frames_received << '\n'
      << "payload_bytes_sent=" << s.payload_bytes_sent << '\n'
      << "charged_bytes_sent=" << s.charged_bytes_sent << '\n'
      << "mismatched_frames=" << s.mismatched_frames << '\n'
      << "os_bytes_sent=" << s.os_bytes_sent << '\n'
      << "os_bytes_received=" << s.os_bytes_received << '\n'
      << "reconnects=" << s.reconnects << '\n'
      << "flips=" << s.flips << '\n'
      << "share_records_sent=" << s.share_records_sent << '\n'
      << "share_bytes_sent=" << s.share_bytes_sent << '\n';
}

void SocketHub::close() {
  if (impl_->closed) return;
  impl_->closed = true;
  write_stats();
  for (int& fd : impl_->peer_fds) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
  if (!impl_->socket_path.empty()) ::unlink(impl_->socket_path.c_str());
  if (!impl_->port_path.empty()) ::unlink(impl_->port_path.c_str());
  if (!impl_->pid_path.empty()) ::unlink(impl_->pid_path.c_str());
}

}  // namespace snap::net
