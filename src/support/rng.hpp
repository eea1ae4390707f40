// Deterministic pseudo-random number generation for fault-map sampling and
// Monte-Carlo validation. xoshiro256** is small, fast, and has no global
// state, so experiments are reproducible from a single seed.
#pragma once

#include <array>
#include <cstdint>

namespace pwcet {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  /// Re-initializes the full 256-bit state from a 64-bit seed.
  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound) with rejection to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound);

  /// Bernoulli trial with success probability p.
  bool next_bernoulli(double p) { return next_double() < p; }

  /// Mixes a stream identifier into a base seed (SplitMix64 finalizer).
  /// Chain it over the fields of a job key to get one seed per job that is
  /// stable under re-ordering or extension of the surrounding sweep.
  static std::uint64_t derive_seed(std::uint64_t base_seed,
                                   std::uint64_t stream_id);

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace pwcet
