#ifndef XJOIN_COMMON_SIMD_H_
#define XJOIN_COMMON_SIMD_H_

// Runtime CPU-feature detection and dispatch policy for the SIMD
// intersection kernels (relational/intersect_kernels.h).
//
// The dispatch ladder is scalar < AVX2. The *effective* level is the
// minimum of two inputs:
//
//   1. what the CPU reports (`__builtin_cpu_supports`, cached once),
//   2. an optional programmatic override (SetSimdDispatchOverride),
//      clamped to the detected level so a test or bench requesting
//      AVX2 on a host without it can never steer execution toward
//      illegal instructions.
//
// Detection is pure policy: whether a kernel table for the chosen
// level was actually compiled into the binary is resolved separately
// by the kernel registry (the build may lack -mavx2 support), which
// falls back to the portable scalar table.

#include <atomic>

namespace xjoin {

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

inline const char* SimdLevelName(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

/// The highest level this CPU supports, probed once per process.
inline SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = [] {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return detected;
}

namespace simd_internal {

// -1 = no programmatic override; otherwise a SimdLevel value.
inline std::atomic<int>& OverrideSlot() {
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace simd_internal

/// Test and bench hook: pin the dispatch level (clamped to the
/// detected one).
inline void SetSimdDispatchOverride(SimdLevel level) {
  simd_internal::OverrideSlot().store(static_cast<int>(level),
                                      std::memory_order_relaxed);
}

inline void ClearSimdDispatchOverride() {
  simd_internal::OverrideSlot().store(-1, std::memory_order_relaxed);
}

/// The dispatch level in effect right now: min(override, detected), or
/// the detected level when no override is set.
inline SimdLevel ActiveSimdLevel() {
  int ov = simd_internal::OverrideSlot().load(std::memory_order_relaxed);
  SimdLevel detected = DetectedSimdLevel();
  if (ov < 0 || ov > static_cast<int>(detected)) return detected;
  return static_cast<SimdLevel>(ov);
}

}  // namespace xjoin

#endif  // XJOIN_COMMON_SIMD_H_
