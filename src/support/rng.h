// Deterministic PRNG used everywhere randomness is needed.
//
// All Bunshin simulations must be reproducible run-to-run, so no component may
// use std::random_device or time-based seeding. Xoshiro256** is fast, has a
// 256-bit state, and passes BigCrush. The per-draw primitives are inline:
// trace generation makes a few thousand draws per session.
#ifndef BUNSHIN_SRC_SUPPORT_RNG_H_
#define BUNSHIN_SRC_SUPPORT_RNG_H_

#include <cstdint>

namespace bunshin {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to avoid
  // modulo bias.
  uint64_t NextBounded(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

  // Standard normal via Box-Muller, scaled to (mean, stddev). Each pair of
  // uniforms yields two normals; the second is returned by the next call.
  double NextGaussian(double mean, double stddev);

  // Derive an independent child stream; children with distinct salts are
  // statistically independent of the parent and each other.
  Rng Fork(uint64_t salt);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  // Draws a Box-Muller pair: returns one normal scaled to (mean, stddev)
  // and caches the other.
  double NextGaussianPair(double mean, double stddev);

  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

inline uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

inline uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection sampling over the largest multiple of bound below 2^64.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

inline double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

inline bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

inline double Rng::NextGaussian(double mean, double stddev) {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return mean + stddev * cached_gaussian_;
  }
  return NextGaussianPair(mean, stddev);
}

}  // namespace bunshin

#endif  // BUNSHIN_SRC_SUPPORT_RNG_H_
