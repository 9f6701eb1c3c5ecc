// Kernel conformance: every compiled intersection-kernel variant
// (scalar / AVX2) against std::lower_bound and
// std::set_intersection oracles on randomized sorted duplicate-free
// arrays (the CSR level invariant) — empty inputs, no overlap, full
// overlap, unaligned starting offsets, tail lengths 0–16 — plus the
// cross-variant invariants the engine relies on: identical landing
// positions, identical seek counts, and dispatch-override semantics.
#include "relational/intersect_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "common/simd.h"

namespace xjoin {
namespace {

std::vector<const IntersectKernel*> CompiledKernels() {
  std::vector<const IntersectKernel*> kernels;
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    const IntersectKernel* kernel = IntersectKernelFor(level);
    if (kernel != nullptr) kernels.push_back(kernel);
  }
  return kernels;
}

// Sorted, duplicate-free keys — the CSR level-array invariant.
std::vector<int64_t> RandomSortedKeys(std::mt19937* rng, size_t n,
                                      int64_t universe) {
  std::uniform_int_distribution<int64_t> dist(0, universe);
  std::set<int64_t> keys;
  while (keys.size() < n) keys.insert(dist(*rng));
  return std::vector<int64_t>(keys.begin(), keys.end());
}

constexpr IntersectStrategy kStrategies[] = {IntersectStrategy::kGallop,
                                             IntersectStrategy::kMerge};

TEST(IntersectKernelTest, ScalarTableAlwaysCompiledIn) {
  ASSERT_NE(IntersectKernelFor(SimdLevel::kScalar), nullptr);
  EXPECT_EQ(IntersectKernelFor(SimdLevel::kScalar)->level,
            SimdLevel::kScalar);
}

TEST(IntersectKernelTest, LowerBoundMatchesStdLowerBound) {
  std::mt19937 rng(20260808);
  for (const IntersectKernel* kernel : CompiledKernels()) {
    // Tail lengths 0–16 hit every sub-block remainder of the 2- and
    // 4-lane vector loops; offsets 0–7 exercise unaligned block starts.
    for (size_t len = 0; len <= 16; ++len) {
      for (size_t rep = 0; rep < 4; ++rep) {
        std::vector<int64_t> keys = RandomSortedKeys(&rng, len + 8, 200);
        for (size_t off = 0; off < 8; ++off) {
          const size_t lo = off;
          const size_t hi = off + len;
          for (int64_t probe = -1; probe <= 201; ++probe) {
            size_t expected = static_cast<size_t>(
                std::lower_bound(keys.begin() + static_cast<long>(lo),
                                 keys.begin() + static_cast<long>(hi),
                                 probe) -
                keys.begin());
            EXPECT_EQ(kernel->lower_bound(keys.data(), lo, hi, probe),
                      expected)
                << SimdLevelName(kernel->level) << " len=" << len
                << " off=" << off << " probe=" << probe;
          }
        }
      }
    }
  }
}

TEST(IntersectKernelTest, LowerBoundHandlesExtremeKeysAndLargeArrays) {
  std::mt19937 rng(7);
  std::vector<int64_t> keys =
      RandomSortedKeys(&rng, 500, std::numeric_limits<int64_t>::max() - 1);
  keys.insert(keys.begin(), std::numeric_limits<int64_t>::min());
  keys.push_back(std::numeric_limits<int64_t>::max());
  for (const IntersectKernel* kernel : CompiledKernels()) {
    for (int64_t probe : {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::min() + 1, int64_t{0},
                          keys[250], keys[251] - 1,
                          std::numeric_limits<int64_t>::max() - 1,
                          std::numeric_limits<int64_t>::max()}) {
      size_t expected = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
      EXPECT_EQ(kernel->lower_bound(keys.data(), 0, keys.size(), probe),
                expected)
          << SimdLevelName(kernel->level) << " probe=" << probe;
    }
  }
}

TEST(IntersectKernelTest, SeekMatchesLowerBoundUnderBothStrategies) {
  std::mt19937 rng(42);
  for (const IntersectKernel* kernel : CompiledKernels()) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{16}, size_t{65},
                     size_t{400}}) {
      std::vector<int64_t> keys = RandomSortedKeys(&rng, n, 4000);
      std::uniform_int_distribution<int64_t> probe_dist(-5, 4005);
      for (size_t rep = 0; rep < 200; ++rep) {
        int64_t probe = probe_dist(rng);
        size_t pos = n == 0 ? 0 : rep % n;
        size_t expected = static_cast<size_t>(
            std::lower_bound(keys.begin() + static_cast<long>(pos),
                             keys.end(), probe) -
            keys.begin());
        for (IntersectStrategy strategy : kStrategies) {
          EXPECT_EQ(kernel->seek(keys.data(), pos, n, probe, strategy),
                    expected)
              << SimdLevelName(kernel->level) << " "
              << IntersectStrategyName(strategy) << " n=" << n
              << " pos=" << pos << " probe=" << probe;
        }
      }
    }
  }
}

// Drives one full drain (resuming across capacity exhaustion) and
// returns the produced keys plus the seek count.
struct DrainResult {
  std::vector<int64_t> keys;
  int64_t seeks = 0;
  std::vector<size_t> final_positions;
};

DrainResult RunDrain(const IntersectKernel& kernel,
                     const std::vector<std::vector<int64_t>>& lists,
                     IntersectStrategy strategy, bool has_hi, int64_t hi,
                     size_t cap) {
  std::vector<KeyCursor> cursors;
  for (const auto& list : lists) {
    cursors.push_back(KeyCursor{list.data(), 0, list.size()});
  }
  DrainResult result;
  std::vector<int64_t> buffer(cap);
  bool first = true;
  bool done = false;
  while (!done) {
    size_t produced = kernel.drain(cursors.data(), cursors.size(), strategy,
                                   first, has_hi, hi, buffer.data(), cap,
                                   &result.seeks, &done);
    first = false;
    result.keys.insert(result.keys.end(), buffer.begin(),
                       buffer.begin() + static_cast<long>(produced));
  }
  for (const KeyCursor& c : cursors) result.final_positions.push_back(c.pos);
  return result;
}

std::vector<int64_t> OracleIntersection(
    const std::vector<std::vector<int64_t>>& lists, bool has_hi, int64_t hi) {
  std::vector<int64_t> acc = lists[0];
  for (size_t i = 1; i < lists.size(); ++i) {
    std::vector<int64_t> next;
    std::set_intersection(acc.begin(), acc.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    acc = std::move(next);
  }
  if (has_hi) {
    acc.erase(std::lower_bound(acc.begin(), acc.end(), hi), acc.end());
  }
  return acc;
}

TEST(IntersectKernelTest, DrainMatchesSetIntersectionOracle) {
  std::mt19937 rng(1234);
  const IntersectKernel& scalar = *IntersectKernelFor(SimdLevel::kScalar);
  struct Shape {
    size_t ways;
    std::vector<size_t> sizes;
    int64_t universe;
  };
  const Shape shapes[] = {
      {2, {0, 10}, 50},       // one side empty
      {2, {12, 12}, 24},      // dense, near-total overlap
      {2, {8, 300}, 2000},    // skewed: gallop territory
      {2, {40, 45}, 90},      // near-equal: merge territory
      {3, {30, 40, 50}, 120},  // 3-way
      {4, {15, 20, 25, 30}, 60},
  };
  for (const Shape& shape : shapes) {
    for (size_t rep = 0; rep < 6; ++rep) {
      std::vector<std::vector<int64_t>> lists;
      for (size_t w = 0; w < shape.ways; ++w) {
        lists.push_back(
            RandomSortedKeys(&rng, shape.sizes[w], shape.universe));
      }
      // Disjoint-universe variant every third rep: zero overlap.
      if (rep % 3 == 2 && shape.ways == 2 && !lists[0].empty()) {
        for (auto& key : lists[1]) key += shape.universe + 10;
        std::sort(lists[1].begin(), lists[1].end());
      }
      for (bool has_hi : {false, true}) {
        int64_t hi = has_hi ? shape.universe / 2 : 0;
        std::vector<int64_t> expected =
            OracleIntersection(lists, has_hi, hi);
        for (IntersectStrategy strategy : kStrategies) {
          // Capacity 1 forces a resume per key; 3 and 1024 cover
          // mid-drain and single-shot paths.
          for (size_t cap : {size_t{1}, size_t{3}, size_t{1024}}) {
            DrainResult reference = RunDrain(scalar, lists, strategy,
                                             has_hi, hi, cap);
            EXPECT_EQ(reference.keys, expected)
                << "scalar oracle mismatch ways=" << shape.ways;
            for (const IntersectKernel* kernel : CompiledKernels()) {
              DrainResult got =
                  RunDrain(*kernel, lists, strategy, has_hi, hi, cap);
              EXPECT_EQ(got.keys, expected)
                  << SimdLevelName(kernel->level) << " "
                  << IntersectStrategyName(strategy) << " cap=" << cap;
              // The counter-exactness contract: identical seek counts
              // and final cursor positions across every variant.
              EXPECT_EQ(got.seeks, reference.seeks)
                  << SimdLevelName(kernel->level) << " "
                  << IntersectStrategyName(strategy) << " cap=" << cap;
              EXPECT_EQ(got.final_positions, reference.final_positions)
                  << SimdLevelName(kernel->level);
            }
          }
        }
      }
    }
  }
}

TEST(IntersectKernelTest, StrategySelectionFollowsTheSkewRatio) {
  // 2-way near-equal goes merge; skew beyond the ratio, or 3+ ways,
  // goes gallop.
  EXPECT_EQ(ChooseIntersectStrategy(2, 100, 100), IntersectStrategy::kMerge);
  EXPECT_EQ(ChooseIntersectStrategy(2, 100, 100 * kMergeSkewRatio),
            IntersectStrategy::kMerge);
  EXPECT_EQ(ChooseIntersectStrategy(2, 100, 100 * kMergeSkewRatio + 1),
            IntersectStrategy::kGallop);
  EXPECT_EQ(ChooseIntersectStrategy(3, 100, 100), IntersectStrategy::kGallop);
  EXPECT_EQ(ChooseIntersectStrategy(2, 0, 50), IntersectStrategy::kGallop);
}

TEST(IntersectKernelTest, DispatchOverrideClampsToDetectedLevel) {
  ClearSimdDispatchOverride();
  SimdLevel detected = DetectedSimdLevel();

  SetSimdDispatchOverride(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_EQ(ActiveIntersectKernel().level, SimdLevel::kScalar);

  // Requesting above the hardware clamps down, never up.
  SetSimdDispatchOverride(SimdLevel::kAvx2);
  EXPECT_EQ(ActiveSimdLevel(), detected);
  EXPECT_LE(static_cast<int>(ActiveIntersectKernel().level),
            static_cast<int>(detected));

  // Clearing restores the detected level.
  ClearSimdDispatchOverride();
  EXPECT_EQ(ActiveSimdLevel(), detected);
}

}  // namespace
}  // namespace xjoin
