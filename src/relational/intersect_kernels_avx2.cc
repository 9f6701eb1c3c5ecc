// AVX2 kernel variant. This TU — and only this TU — is compiled with
// -mavx2 (see src/relational/CMakeLists.txt), so the vector code here
// never leaks into translation units that must stay runnable on
// baseline x86-64. When the flag is unavailable the registry entry
// degrades to null and dispatch falls back to the portable scalar table.
#include "relational/intersect_kernels.h"

#if defined(__AVX2__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include "relational/intersect_kernels_impl.h"

namespace xjoin {
namespace intersect_internal {
namespace {

// __m256i holds four int64 lanes; VPCMPGTQ is the signed compare.
struct Avx2Ops {
  static constexpr size_t kLinearCutoff = 32;
  static constexpr size_t kScanBudget = 32;

  static size_t LinearLowerBound(const int64_t* keys, size_t lo, size_t hi,
                                 int64_t key) {
    const __m256i needle = _mm256_set1_epi64x(key);
    size_t i = lo;
    while (i + 4 <= hi) {
      // Keys ascend, so lanes < key form a prefix of the block: the
      // popcount of the less-than mask is the in-block offset of the
      // first lane >= key. Loads are unaligned by design — CSR level
      // ranges start at arbitrary child offsets.
      __m256i block =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
      __m256i lt = _mm256_cmpgt_epi64(needle, block);
      unsigned mask =
          static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(lt)));
      if (mask != 0xFu) {
        return i + static_cast<size_t>(__builtin_popcount(mask));
      }
      i += 4;
    }
    while (i < hi && keys[i] < key) ++i;  // tail
    return i;
  }
};

using Avx2Kernels = Kernels<Avx2Ops>;

constexpr IntersectKernel kAvx2Kernel = {
    SimdLevel::kAvx2,
    &Avx2Kernels::LowerBound,
    &Avx2Kernels::Seek,
    &Avx2Kernels::Drain,
};

}  // namespace

const IntersectKernel* Avx2IntersectKernel() { return &kAvx2Kernel; }

}  // namespace intersect_internal
}  // namespace xjoin

#else  // !__AVX2__

namespace xjoin {
namespace intersect_internal {

const IntersectKernel* Avx2IntersectKernel() { return nullptr; }

}  // namespace intersect_internal
}  // namespace xjoin

#endif  // __AVX2__
