// The SHARE path of the socket hub: owner-computed rows (gradients,
// losses) exchanged at a barrier, and the hub's refusal of any share
// that breaks the protocol. Each test forks two hub processes over UDS
// (node 0 belongs to shard 0, node 1 to shard 1). Shard 1 plays the
// sender, honest or not; shard 0 must either receive the row bit for
// bit or refuse the share with a ContractViolation naming the reason.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"

namespace snap::net {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kNodes = 2;

TransportConfig hub_config(std::size_t shard_id, const fs::path& dir) {
  TransportConfig config;
  config.kind = TransportKind::kUds;
  config.shards = 2;
  config.shard_id = shard_id;
  config.rendezvous_dir = dir.string();
  // A refused share kills shard 0; the sender must not park for long.
  config.heartbeat_interval_s = 0.02;
  config.park_timeout_s = 1.0;
  return config;
}

/// Runs `receiver` as shard 0 and `sender` as shard 1, each in a forked
/// process with its own hub, and returns shard 0's exit code (0 = the
/// receiver's expectation held). The sender's outcome is not checked:
/// after a refusal its peer is gone.
int run_pair(const std::function<int(SocketHub&)>& receiver,
             const std::function<void(SocketHub&)>& sender,
             const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("snap-share-" + tag + "-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<pid_t> children;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
      ::alarm(30);
      int status = 1;
      try {
        SocketHub hub(hub_config(shard, dir), kNodes);
        if (shard == 0) {
          status = receiver(hub);
        } else {
          sender(hub);
          status = 0;
        }
      } catch (...) {
      }
      ::_exit(status);
    }
    children.push_back(pid);
  }
  int code = -1;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    int status = 0;
    ::waitpid(children[shard], &status, 0);
    if (shard == 0) code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  fs::remove_all(dir);
  return code;
}

/// A receiver that runs barriers 0..last as row exchanges of
/// `row_length` and expects one of them to refuse with a message
/// containing `reason`.
std::function<int(SocketHub&)> expects_refusal(std::uint64_t last,
                                               std::size_t row_length,
                                               std::string reason) {
  return [=](SocketHub& hub) {
    try {
      for (std::uint64_t b = 0; b <= last; ++b) {
        hub.finish_exchange(b, row_length);
      }
    } catch (const common::ContractViolation& e) {
      return std::string(e.what()).find(reason) != std::string::npos ? 0 : 3;
    }
    return 2;
  };
}

ShareRecord row(std::uint64_t barrier, topology::NodeId node,
                std::vector<double> values) {
  return {barrier, node, std::move(values)};
}

TEST(TransportShareTest, RowsCrossBitForBit) {
  const int code = run_pair(
      [](SocketHub& hub) {
        hub.send_share(row(0, 0, {1.0, 2.0}));
        const std::vector<ShareRecord> got = hub.finish_exchange(0, 2);
        const std::vector<double> want = {-0.0, 0.1};
        if (got.size() != 1 || got[0].node != 1) return 2;
        if (std::memcmp(got[0].values.data(), want.data(),
                        sizeof(double) * 2) != 0) {
          return 3;
        }
        return hub.stats().share_records_sent == 1 &&
                       hub.stats().share_bytes_sent == 16 &&
                       hub.stats().frames_sent == 0
                   ? 0
                   : 4;
      },
      [](SocketHub& hub) {
        hub.send_share(row(0, 1, {-0.0, 0.1}));
        hub.finish_exchange(0, 2);
      },
      "ok");
  EXPECT_EQ(code, 0);
}

TEST(TransportShareTest, ShareOfANodeTheSenderDoesNotOwnIsRefused) {
  EXPECT_EQ(run_pair(expects_refusal(0, 2, "does not own"),
                     [](SocketHub& hub) {
                       hub.send_share(row(0, 0, {1.0, 2.0}));
                       hub.finish_exchange(0, 2);
                     },
                     "owner"),
            0);
}

TEST(TransportShareTest, RowOfTheWrongLengthIsRefused) {
  EXPECT_EQ(run_pair(expects_refusal(0, 2, "expected 2"),
                     [](SocketHub& hub) {
                       hub.send_share(row(0, 1, {1.0, 2.0, 3.0}));
                       hub.finish_exchange(0, 2);
                     },
                     "length"),
            0);
}

TEST(TransportShareTest, DuplicateShareIsRefused) {
  EXPECT_EQ(run_pair(expects_refusal(0, 2, "duplicate share"),
                     [](SocketHub& hub) {
                       hub.send_share(row(0, 1, {1.0, 2.0}));
                       hub.send_share(row(0, 1, {1.0, 2.0}));
                       hub.finish_exchange(0, 2);
                     },
                     "dup"),
            0);
}

TEST(TransportShareTest, ShareForAFinishedBarrierIsRefused) {
  // The replay is sent once barrier 1 finished here, which needs the
  // receiver's barrier 1, sent only after its barrier 0 finished.
  EXPECT_EQ(run_pair(expects_refusal(2, 2, "already finished"),
                     [](SocketHub& hub) {
                       for (std::uint64_t b = 0; b < 2; ++b) {
                         hub.send_share(row(b, 1, {1.0, 2.0}));
                         hub.finish_exchange(b, 2);
                       }
                       hub.send_share(row(0, 1, {1.0, 2.0}));
                       hub.send_share(row(2, 1, {1.0, 2.0}));
                       hub.finish_exchange(2, 2);
                     },
                     "stale"),
            0);
}

TEST(TransportShareTest, ShareAtAFrameFlipIsRefused) {
  EXPECT_EQ(run_pair(
                [](SocketHub& hub) {
                  try {
                    hub.finish_flip(0);
                  } catch (const common::ContractViolation& e) {
                    return std::string(e.what()).find("exchanges no rows") !=
                                   std::string::npos
                               ? 0
                               : 3;
                  }
                  return 2;
                },
                [](SocketHub& hub) {
                  hub.send_share(row(0, 1, {1.0, 2.0}));
                  hub.finish_flip(0);
                },
                "flip"),
            0);
}

}  // namespace
}  // namespace snap::net
