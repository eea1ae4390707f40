#include "support/rng.hpp"

#include "support/contracts.hpp"

namespace pwcet {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  for (auto& word : state_) word = splitmix64(seed);
  // All-zero state is the single forbidden state of xoshiro; SplitMix64
  // cannot produce four zero outputs in a row, but keep the guard explicit.
  PWCET_ENSURES(state_[0] | state_[1] | state_[2] | state_[3]);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 top bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::derive_seed(std::uint64_t base_seed,
                               std::uint64_t stream_id) {
  // Offset by the golden-ratio increment per stream, then finalize; the
  // +1 keeps stream 0 from collapsing to a plain splitmix64(base_seed)
  // that a caller might also be using directly.
  std::uint64_t x = base_seed + 0x9e3779b97f4a7c15ULL * (stream_id + 1);
  return splitmix64(x);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  PWCET_EXPECTS(bound > 0);
  const std::uint64_t threshold = -bound % bound;  // 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace pwcet
