#include "common/random.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace xjoin {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next64() {
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

uint64_t Rng::NextBounded(uint64_t bound) {
  XJ_DCHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = Next64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

std::string Rng::NextString(size_t length) {
  std::string out(length, 'a');
  for (auto& c : out) c = static_cast<char>('a' + NextBounded(26));
  return out;
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  XJ_CHECK(n > 0) << "ZipfGenerator needs a positive domain";
  XJ_CHECK(theta >= 0.0) << "ZipfGenerator needs theta >= 0";
  cdf_.resize(n);
  double acc = 0.0;
  for (uint64_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = acc;
  }
  const double total = acc;
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // guard against floating-point shortfall
}

uint64_t ZipfGenerator::Next(Rng* rng) const {
  const double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return n_ - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace xjoin
