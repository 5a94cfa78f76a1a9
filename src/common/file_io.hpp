// Whole-file I/O shared by every file the library persists or
// publishes: both checkpoint formats and the socket hub's rendezvous
// stamps (shard-<k>.pid, shard-<k>.port).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace snap::common {

/// The whole file at `path`; nullopt on any failure (missing, not a
/// regular file, short read).
std::optional<std::vector<std::byte>> read_file(const std::string& path);

/// Writes `bytes` to `path` atomically: into `path.tmp`, then rename(2),
/// so a reader sees the old complete file or the new one, never a torn
/// write. Returns false on I/O failure.
bool write_file_atomic(const std::string& path,
                       std::span<const std::byte> bytes);

}  // namespace snap::common
