#include "net/transport.hpp"

#include "common/check.hpp"

namespace snap::net {

std::string_view transport_name(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kSim:
      return "sim";
    case TransportKind::kUds:
      return "uds";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "?";
}

std::size_t shard_of_node(topology::NodeId node, std::size_t node_count,
                          std::size_t shards) noexcept {
  if (shards <= 1 || node_count == 0) return 0;
  const std::size_t block = (node_count + shards - 1) / shards;
  const std::size_t shard = node / block;
  return shard < shards ? shard : shards - 1;
}

}  // namespace snap::net
