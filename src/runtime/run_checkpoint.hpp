// Round-aligned run checkpoints: everything a shard needs to resume a
// training run mid-flight and continue bitwise-identically to an
// uninterrupted execution.
//
// A RunCheckpoint extends the model checkpoint format (src/ml/
// checkpoint.*, the same sealed envelope and file I/O) from "a parameter
// vector" to "a whole run": the round counter, the full per-iteration
// stats series observed so far, the cost-tracker totals, the fault
// injector's membership epoch and alive mask (restored by deterministic
// replay, carried here for cross-validation), the transport's wire
// state (per-peer seq/flip positions), and an opaque algorithm blob the
// scheme serializes through RoundHooks::save_state (trainer params +
// EXTRA memory, APE controllers, RNG stream positions, backlog, ...).
//
// Files are written atomically (tmp + rename) so a crash mid-write can
// never leave a torn checkpoint for the respawned process to trip on —
// the previous round's file survives intact.
//
// Layout: the ml::seal envelope (kRunCheckpointMagic,
// kRunCheckpointVersion) around RunCheckpoint::transfer's fields in
// their common::field shapes; an iteration record is every
// core::kIterationStatsColumns entry in table order (f64, u64, or a u8
// for a bool).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/training.hpp"

namespace snap::runtime {

/// The run checkpoint envelope's magic and format version. v2:
/// per-iteration partition telemetry (components,
/// largest_component_frac, partition_epoch) and sparsifier telemetry
/// (links_pruned, effective_edges, slem_after_prune). v3: SnapNode's
/// record drops the parked views and the initial mean |x⁰|. Older blobs
/// are rejected — the loader treats that as "no checkpoint" and
/// cold-replays from round 0, which determinism makes
/// bitwise-equivalent.
inline constexpr std::string_view kRunCheckpointMagic = "SNAPRUN1";
inline constexpr std::uint32_t kRunCheckpointVersion = 3;

/// Fabric-level checkpoint knobs (threaded from the CLI / configs down
/// into FabricConfig). Disabled by default: no path, no cadence.
struct CheckpointConfig {
  /// Checkpoint file path; empty disables both writing and resuming.
  std::string path;
  /// Write the checkpoint after every `every`-th round (0 = never).
  std::size_t every = 0;
  /// Load `path` before round 1 and continue from it. A missing file is
  /// not an error — the run starts from round 0 (a shard killed before
  /// its first checkpoint replays the whole prefix).
  bool resume = false;
};

/// A serialized run position, round-aligned (written after end_round).
struct RunCheckpoint {
  /// Round the checkpoint was taken after; resume continues at round+1.
  std::uint64_t round = 0;
  double sim_seconds = 0.0;
  /// FaultInjector cross-check: the membership epoch and alive mask at
  /// `round`. Restoration replays the injector deterministically; these
  /// fields only validate that the replay landed where the writer was.
  std::uint64_t membership_epoch = 0;
  std::vector<std::uint8_t> alive;
  /// Every iteration observed so far — the resumed TrainResult must
  /// contain the pre-crash prefix for trajectory parity.
  std::vector<core::IterationStats> iterations;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_cost = 0;
  /// Transport wire state (per-peer seq/flip positions) via
  /// net::Transport::save_wire_state. Empty for the sim transport.
  std::vector<std::byte> wire_state;
  /// Opaque algorithm blob via RoundHooks::save_state.
  std::vector<std::byte> algorithm_state;

  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    fields(io, self.round, self.sim_seconds, self.membership_epoch,
           self.alive, self.iterations, self.total_bytes, self.total_cost,
           self.wire_state, self.algorithm_state);
  }
};

/// Serializes a checkpoint to bytes (checksummed, self-describing).
std::vector<std::byte> encode_run_checkpoint(const RunCheckpoint& ckpt);

/// Parses bytes produced by encode_run_checkpoint. Returns nullopt on a
/// malformed buffer, wrong magic/version, or checksum mismatch.
std::optional<RunCheckpoint> decode_run_checkpoint(
    std::span<const std::byte> bytes);

/// Atomically writes the checkpoint to `path` (tmp + rename — a crash
/// mid-write leaves the previous file intact). Returns false on I/O
/// failure.
bool save_run_checkpoint(const std::string& path, const RunCheckpoint& ckpt);

/// Reads a checkpoint from `path`. Returns nullopt on I/O failure or a
/// malformed file.
std::optional<RunCheckpoint> load_run_checkpoint(const std::string& path);

}  // namespace snap::runtime
