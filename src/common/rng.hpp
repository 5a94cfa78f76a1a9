// Deterministic random number generation for SNAP.
//
// All randomness in the library flows through these generators so that
// every experiment is reproducible from a printed seed. Two engines are
// provided:
//   - SplitMix64: fast 64-bit mixer, used for seeding and cheap draws.
//   - Pcg32: PCG-XSH-RR 64/32, the workhorse engine (good statistical
//     quality, tiny state, O(1) stream split).
//
// Rng wraps Pcg32 with the distribution helpers the rest of the library
// needs (uniform reals/ints, Gaussians, Bernoulli, shuffling, sampling
// without replacement). Rng::fork(tag) derives an independent child
// stream, which keeps parallel components (one per edge server, one per
// link, ...) decorrelated without global coordination.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace snap::common {

/// SplitMix64 — Steele, Lea & Flood's 64-bit mixing generator.
/// Primarily used to expand a single user seed into engine state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Returns the next 64 pseudo-random bits.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// PCG-XSH-RR 64/32 (O'Neill). 64-bit state + 64-bit stream selector.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  Pcg32() noexcept : Pcg32(0x853C49E6748FEA9BULL, 0xDA3E39CB94B95BDBULL) {}

  /// Seeds the engine; `stream` selects one of 2^63 independent sequences.
  Pcg32(std::uint64_t seed, std::uint64_t stream) noexcept;

  /// Returns the next 32 pseudo-random bits.
  result_type next() noexcept;

  result_type operator()() noexcept { return next(); }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return 0xFFFFFFFFu; }

  /// Checkpoint codec (common::field) of the engine position: state,
  /// then stream selector. A restored engine continues the exact draw
  /// sequence it was saved at.
  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    fields(io, self.state_, self.inc_);
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// High-level deterministic random source used throughout SNAP.
class Rng {
 public:
  /// Creates a generator from a user seed. Equal seeds ⇒ equal streams.
  explicit Rng(std::uint64_t seed = 0x5eedULL) noexcept;

  /// Derives an independent child generator. Children forked with
  /// different tags (or in a different order) are decorrelated from the
  /// parent and from each other; forking does not perturb the parent's
  /// own future output.
  Rng fork(std::uint64_t tag) noexcept;

  /// Derives an independent child keyed by a string label (e.g. "links").
  Rng fork(std::string_view label) noexcept;

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased
  /// (Lemire's rejection method).
  std::uint64_t uniform_u64(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform real in [0, 1).
  double uniform() noexcept;

  /// Uniform real in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Standard normal draw (Box–Muller with caching).
  double normal() noexcept;

  /// Normal draw with given mean and standard deviation (stddev >= 0).
  double normal(double mean, double stddev) noexcept;

  /// Bernoulli draw: true with probability p (p clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Fisher–Yates shuffle of [0, n) indices; returns the permutation.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Fisher–Yates shuffle of an arbitrary vector in place.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j =
          static_cast<std::size_t>(uniform_u64(static_cast<std::uint64_t>(i) + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Samples k distinct indices from [0, n) uniformly (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// The seed this generator was constructed from (for reporting).
  std::uint64_t seed() const noexcept { return seed_; }

  /// Checkpoint codec (common::field) of the full stream position:
  /// seed, engine, and the Box–Muller normal cache. A restored Rng
  /// continues the exact draw sequence it was saved at.
  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    fields(io, self.seed_, self.engine_, self.has_cached_normal_,
           self.cached_normal_);
  }

 private:
  Rng(std::uint64_t seed, std::uint64_t stream) noexcept;

  std::uint64_t seed_;
  Pcg32 engine_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace snap::common
