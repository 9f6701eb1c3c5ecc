#include "relational/intersect_kernels.h"

#include "relational/intersect_kernels_impl.h"

namespace xjoin {

namespace {

// Portable fallback: plain scalar loops, no target-specific flags.
// This is also the reference the SIMD variants are tested against.
struct ScalarOps {
  static constexpr size_t kLinearCutoff = 8;
  static constexpr size_t kScanBudget = 16;

  static size_t LinearLowerBound(const int64_t* keys, size_t lo, size_t hi,
                                 int64_t key) {
    while (lo < hi && keys[lo] < key) ++lo;
    return lo;
  }
};

using ScalarKernels = intersect_internal::Kernels<ScalarOps>;

constexpr IntersectKernel kScalarKernel = {
    SimdLevel::kScalar,
    &ScalarKernels::LowerBound,
    &ScalarKernels::Seek,
    &ScalarKernels::Drain,
};

}  // namespace

const IntersectKernel* IntersectKernelFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarKernel;
    case SimdLevel::kAvx2:
      return intersect_internal::Avx2IntersectKernel();
  }
  return &kScalarKernel;
}

const IntersectKernel& ActiveIntersectKernel() {
  // The -mavx2 flag may have been unavailable at build time.
  const IntersectKernel* kernel = IntersectKernelFor(ActiveSimdLevel());
  return kernel != nullptr ? *kernel : kScalarKernel;
}

}  // namespace xjoin
