// Deterministic pseudo-random generation for workload synthesis:
// a splitmix64/xoshiro-style engine plus uniform, Zipf, and sampling
// helpers. All generators are seeded explicitly so every experiment is
// reproducible bit-for-bit.
#ifndef XJOIN_COMMON_RANDOM_H_
#define XJOIN_COMMON_RANDOM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xjoin {

/// A small, fast, deterministic PRNG (xoshiro256** seeded via splitmix64).
/// Not cryptographic; intended for reproducible workload generation.
class Rng {
 public:
  /// Seeds the engine. Equal seeds yield identical streams on all platforms.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t Next64();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Random lowercase ASCII string of the given length.
  std::string NextString(size_t length);

 private:
  uint64_t state_[4];
};

/// Zipf-distributed integers over [0, n): rank r is drawn with probability
/// proportional to 1/(r+1)^theta. Uses a precomputed CDF with binary search,
/// so draws are O(log n) and exact for any theta >= 0 (theta == 0 is
/// uniform).
class ZipfGenerator {
 public:
  /// Builds the CDF. Precondition: n > 0, theta >= 0.
  ZipfGenerator(uint64_t n, double theta);

  /// Draws one rank in [0, n) using `rng`.
  uint64_t Next(Rng* rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  std::vector<double> cdf_;
};

}  // namespace xjoin

#endif  // XJOIN_COMMON_RANDOM_H_
