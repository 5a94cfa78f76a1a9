// Fuzz entry point for everything that parses bytes off the network or
// back from disk: the update-frame codec (formats A and B), the
// checksummed STATE_SYNC codec, the socket hub's seven record types
// (every input is decoded as each), the stream reassembler, and the
// two checkpoint decoders (run and model). Each checkpoint decoder also
// sees the input re-sealed (its FNV-1a trailer recomputed), so
// arbitrary bytes reach the field decoders behind the checksum.
// Arbitrary input must never crash, hang, or yield a structurally
// invalid frame — decode rejects or returns a valid object, whole or
// not at all.
//
// Two drivers share this file:
//   - Under Clang with -DSNAP_FUZZ=ON, CMake links libFuzzer
//     (-fsanitize=fuzzer) against LLVMFuzzerTestOneInput.
//   - Elsewhere (the repo toolchain is GCC, which has no libFuzzer),
//     the standalone main() below replays corpus files passed as
//     arguments and can emit a seed corpus with --emit-corpus DIR,
//     mirroring the generators of tests/net_frame_fuzz_test.cpp.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/file_io.hpp"
#include "common/rng.hpp"
#include "ml/checkpoint.hpp"
#include "net/frame.hpp"
#include "net/reassembly.hpp"
#include "net/socket_transport.hpp"
#include "runtime/run_checkpoint.hpp"

namespace {

using snap::net::FrameReassembler;

void check_update_frame(const snap::net::UpdateFrame& frame) {
  // Structural validity: indices strictly increasing and in range.
  std::uint32_t last = 0;
  for (std::size_t i = 0; i < frame.updates.size(); ++i) {
    const std::uint32_t idx = frame.updates[i].index;
    if (idx >= frame.total_params || (i > 0 && idx <= last)) {
      std::cerr << "invalid decoded frame: index " << idx << " of "
                << frame.total_params << " at position " << i << '\n';
      std::abort();
    }
    last = idx;
  }
  if (frame.updates.size() > frame.total_params) std::abort();
}

/// Recomputes the trailing FNV-1a checksum of a sealed blob.
void reseal(std::vector<std::byte>& blob) {
  if (blob.size() < 8) return;
  const std::uint64_t sum = snap::common::fnv1a(
      std::span<const std::byte>(blob).first(blob.size() - 8));
  std::memcpy(blob.data() + blob.size() - 8, &sum, sizeof sum);
}

/// A decoded checkpoint must re-encode to the input's length: every
/// field read whole, nothing left over or invented.
void check_checkpoints(std::span<const std::byte> blob) {
  if (const auto run = snap::runtime::decode_run_checkpoint(blob)) {
    if (snap::runtime::encode_run_checkpoint(*run).size() != blob.size()) {
      std::abort();
    }
  }
  if (const auto model = snap::ml::decode_checkpoint(blob)) {
    if (snap::ml::encode_checkpoint(*model).size() != blob.size()) {
      std::abort();
    }
  }
}

void fuzz_one(const std::uint8_t* data, std::size_t size) {
  const auto* bytes = reinterpret_cast<const std::byte*>(data);
  const std::span<const std::byte> input(bytes, size);

  if (const auto frame = snap::net::decode_update_frame(input)) {
    check_update_frame(*frame);
  }
  (void)snap::net::decode_state_sync_frame(input);
  using snap::net::decode_record;
  (void)decode_record<snap::net::HelloRecord>(input);
  (void)decode_record<snap::net::WireRecord>(input);
  (void)decode_record<snap::net::BarrierRecord>(input);
  (void)decode_record<snap::net::HeartbeatRecord>(input);
  (void)decode_record<snap::net::ReconnectRecord>(input);
  (void)decode_record<snap::net::ReconnectAckRecord>(input);
  if (const auto share = decode_record<snap::net::ShareRecord>(input)) {
    // The size check precedes the allocation: a decoded row can never
    // claim more values than the input carried bytes for.
    if (share->values.size() * sizeof(double) > size) std::abort();
  }

  check_checkpoints(input);
  std::vector<std::byte> resealed(input.begin(), input.end());
  reseal(resealed);
  check_checkpoints(resealed);

  // Stream reassembly: feed the input twice with a mid-buffer split so
  // partial-prefix and partial-record paths both run. Poisoning (an
  // oversized length prefix) is a documented contract, not a crash.
  try {
    FrameReassembler reassembler;
    reassembler.feed(input.subspan(0, size / 2));
    while (reassembler.next()) {
    }
    reassembler.feed(input.subspan(size / 2));
    while (auto record = reassembler.next()) {
      if (const auto inner = snap::net::decode_update_frame(*record)) {
        check_update_frame(*inner);
      }
    }
  } catch (const std::exception&) {
    // ContractViolation on poison — expected for garbage prefixes.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(data, size);
  return 0;
}

#if !defined(SNAP_FUZZ_LIBFUZZER)

namespace {

void write_corpus_file(const std::filesystem::path& dir,
                       const std::string& name,
                       std::span<const std::byte> bytes) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Seeds the corpus with the same families of inputs the in-tree gtest
/// fuzz suites generate: valid sparse frames across densities (format A
/// and B territory), STATE_SYNC frames, transport wire records, SHARE
/// rows, framed streams, run and model checkpoints, and bit-flipped
/// mutants of each.
void emit_corpus(const std::filesystem::path& dir) {
  namespace net = snap::net;
  std::filesystem::create_directories(dir);
  snap::common::Rng rng(2020);
  int serial = 0;
  const auto emit = [&](std::span<const std::byte> bytes) {
    write_corpus_file(dir, "seed-" + std::to_string(serial++), bytes);
    // One mutant per seed: a few random bit flips.
    std::vector<std::byte> mutant(bytes.begin(), bytes.end());
    for (std::uint64_t f = 1 + rng.uniform_u64(4); f > 0 && !mutant.empty();
         --f) {
      const auto pos = rng.uniform_u64(mutant.size());
      mutant[pos] ^= static_cast<std::byte>(1u << rng.uniform_u64(8));
    }
    write_corpus_file(dir, "seed-" + std::to_string(serial++), mutant);
  };

  for (const std::uint32_t total : {1u, 8u, 64u, 700u}) {
    for (const double density : {0.0, 0.1, 0.9, 1.0}) {
      const auto sent = static_cast<std::size_t>(density * total);
      const auto chosen = rng.sample_without_replacement(total, sent);
      std::vector<std::size_t> sorted(chosen.begin(), chosen.end());
      std::sort(sorted.begin(), sorted.end());
      std::vector<net::ParamUpdate> updates;
      for (const auto idx : sorted) {
        updates.push_back({static_cast<std::uint32_t>(idx), rng.normal()});
      }
      emit(net::encode_update_frame(total, updates));
    }
    std::vector<double> params(total);
    for (auto& v : params) v = rng.normal();
    emit(net::encode_state_sync_frame(params));
  }

  net::WireRecord record;
  record.flip = 3;
  record.seq = 17;
  record.from = 1;
  record.to = 4;
  record.charged_bytes = 64;
  record.payload.resize(16, std::byte{0x5A});
  // Each seed goes in raw and framed, plus the usual bit-flip mutants.
  const auto emit_record = [&](const auto& hub_record) {
    const std::vector<std::byte> body = net::encode_record(hub_record);
    emit(body);
    emit(FrameReassembler::frame(body));
  };
  emit_record(record);

  // Rendezvous and control records: HELLO, BARRIER, heartbeat, the
  // reconnect handshake and its ack.
  emit_record(net::HelloRecord{{1, 2, 8}});
  emit_record(net::BarrierRecord{12});
  emit_record(net::HeartbeatRecord{12});
  emit_record(net::ReconnectRecord{{1, 2, 8}, 3});
  emit_record(net::ReconnectAckRecord{0, 12, 3});

  // Owner-computed rows: a gradient row and a one-double loss row.
  net::ShareRecord share;
  share.barrier = 7;
  share.node = 5;
  share.values.resize(25);
  for (auto& v : share.values) v = rng.normal();
  emit_record(share);
  share.values.resize(1);
  emit(net::encode_record(share));

  // Checkpoints: a run checkpoint with a short stats series and opaque
  // wire/algorithm blobs, and a model checkpoint. Their bit-flip mutants
  // fail the checksum as given; fuzz_one re-seals them.
  snap::runtime::RunCheckpoint run;
  run.round = 3;
  run.sim_seconds = 0.75;
  run.membership_epoch = 1;
  run.alive = {1, 1, 0, 1};
  run.iterations.resize(3);
  for (auto& it : run.iterations) it.train_loss = rng.uniform();
  run.wire_state.assign(16, std::byte{0x11});
  run.algorithm_state.assign(40, std::byte{0x22});
  emit(snap::runtime::encode_run_checkpoint(run));
  snap::ml::Checkpoint model;
  model.model_name = "linear-svm-24";
  model.params = snap::linalg::Vector(25, 0.5);
  emit(snap::ml::encode_checkpoint(model));

  std::cout << "wrote " << serial << " corpus files to " << dir.string()
            << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--emit-corpus") {
    emit_corpus(argv[2]);
    return 0;
  }
  if (argc < 2) {
    std::cerr << "usage: " << argv[0]
              << " [--emit-corpus DIR] CORPUS_FILE_OR_DIR...\n";
    return 2;
  }
  std::size_t cases = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path path(argv[i]);
    std::vector<std::filesystem::path> files;
    if (std::filesystem::is_directory(path)) {
      for (const auto& entry :
           std::filesystem::directory_iterator(path)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
    } else {
      files.push_back(path);
    }
    for (const auto& file : files) {
      const auto data = snap::common::read_file(file.string());
      if (!data) {
        std::cerr << "cannot read " << file.string() << '\n';
        return 1;
      }
      fuzz_one(reinterpret_cast<const std::uint8_t*>(data->data()),
               data->size());
      ++cases;
    }
  }
  std::cout << "replayed " << cases << " corpus case(s), no crashes\n";
  return 0;
}

#endif  // !SNAP_FUZZ_LIBFUZZER
