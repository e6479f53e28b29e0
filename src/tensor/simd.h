// Register-tiled row accumulation shared by the SpMM (sparse/csr.cc) and
// GEMM-family (tensor/ops.cc) kernels, written once with GCC vector
// extensions and compiled twice: for AVX2 and for baseline x86-64. The
// kernel sources include this header; nothing else should.
//
// Every kernel here computes an output row as
//
//   out[j] = init[j] + s_0 * row_0[j] + s_1 * row_1[j] + ...
//
// over its terms t in ascending order, optionally skipping terms whose
// scale is zero. An output tile lives in vector registers for the whole
// term loop and is stored once, where the scalar loops these kernels
// replaced loaded and stored it once per term. Each element still sees the
// same multiply, then add, in the same order, so every non-NaN result bit
// is that of the scalar loop on every ISA and at any thread count. Two
// rules keep it that way (docs/PERFORMANCE.md, "Kernel ISA"):
//   * No FMA. Neither compile enables the `fma` target, so `acc += s * x`
//     stays a rounded multiply followed by a rounded add.
//   * One body. The AVX2 and baseline kernels are the same template
//     instantiated under two target attributes; tests/kernels_test.cc holds
//     the scalar reference they are compared against.
//
// Dispatch is a run-time `__builtin_cpu_supports("avx2")` check rather than
// `target_clones`: the ifunc resolver that target_clones emits runs before
// ThreadSanitizer's runtime is initialized and crashes the tsan preset.

#ifndef SGNN_TENSOR_SIMD_H_
#define SGNN_TENSOR_SIMD_H_

#include <cstdint>
#include <cstring>

#define SGNN_SIMD_INLINE inline __attribute__((always_inline))

namespace sgnn::simd {

/// True when the AVX2 kernels run on this CPU (resolved once).
inline bool HasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool avx2 = [] {
    __builtin_cpu_init();  // safe even when called from a static initializer
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

using F32x8 = float __attribute__((vector_size(32)));
using F32x4 = float __attribute__((vector_size(16)));
using F64x4 = double __attribute__((vector_size(32)));

/// One 32-byte accumulator vector of element type T. Loads read T rows;
/// stores round to float (exact for T = float).
template <typename T>
struct Lanes;

template <>
struct Lanes<float> {
  using Vec = F32x8;
  static constexpr int kWidth = 8;
  static SGNN_SIMD_INLINE void LoadVec(const float* p, Vec* v) {
    std::memcpy(v, p, sizeof(Vec));
  }
  static SGNN_SIMD_INLINE void StoreVec(const Vec& v, float* p) {
    std::memcpy(p, &v, sizeof(Vec));
  }
};

template <>
struct Lanes<double> {
  using Vec = F64x4;
  static constexpr int kWidth = 4;
  static SGNN_SIMD_INLINE void LoadVec(const double* p, Vec* v) {
    std::memcpy(v, p, sizeof(Vec));
  }
  static SGNN_SIMD_INLINE void StoreVec(const Vec& v, float* p) {
    const F32x4 f = __builtin_convertvector(v, F32x4);
    std::memcpy(p, &f, sizeof(F32x4));
  }
};

/// One term of a row accumulation: `scale * row[0, width)`.
template <typename T>
struct Term {
  T scale;
  const T* row;
};

/// out[j, j + kVecs * lanes) over all terms; see AccumulateRow.
template <typename T, int kVecs, bool kSkipZero, bool kAccumulate,
          typename TermFn>
SGNN_SIMD_INLINE void AccumulateTile(int64_t num_terms, const TermFn& term,
                                     int64_t j, float* out) {
  using L = Lanes<T>;
  typename L::Vec acc[kVecs] = {};
  if constexpr (kAccumulate) {
#pragma GCC unroll 8
    for (int r = 0; r < kVecs; ++r) {
      L::LoadVec(out + j + r * L::kWidth, &acc[r]);
    }
  }
  for (int64_t t = 0; t < num_terms; ++t) {
    const Term<T> tm = term(t);
    if constexpr (kSkipZero) {
      if (tm.scale == 0.0f) continue;
    }
    const T* row = tm.row + j;
#pragma GCC unroll 8
    for (int r = 0; r < kVecs; ++r) {
      typename L::Vec x;
      L::LoadVec(row + r * L::kWidth, &x);
      acc[r] += tm.scale * x;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kVecs; ++r) {
    L::StoreVec(acc[r], out + j + r * L::kWidth);
  }
}

/// out[0, width) = (kAccumulate ? out : 0) + sum_t term(t).scale *
/// term(t).row[0, width), accumulated in T over ascending t and rounded to
/// float once per element. kSkipZero drops terms whose scale is zero (so a
/// zero times an Inf or NaN row entry contributes nothing). Columns go in
/// 8-vector tiles, then single vectors, then a scalar tail.
template <typename T, bool kSkipZero, bool kAccumulate, typename TermFn>
SGNN_SIMD_INLINE void AccumulateRow(int64_t num_terms, const TermFn& term,
                                    int64_t width, float* out) {
  static_assert(!kAccumulate || sizeof(T) == sizeof(float),
                "accumulating loads float outputs into float lanes only");
  constexpr int64_t kLanes = Lanes<T>::kWidth;
  int64_t j = 0;
  for (; j + 8 * kLanes <= width; j += 8 * kLanes) {
    AccumulateTile<T, 8, kSkipZero, kAccumulate>(num_terms, term, j, out);
  }
  for (; j + kLanes <= width; j += kLanes) {
    AccumulateTile<T, 1, kSkipZero, kAccumulate>(num_terms, term, j, out);
  }
  for (; j < width; ++j) {
    T acc = kAccumulate ? out[j] : T(0);
    for (int64_t t = 0; t < num_terms; ++t) {
      const Term<T> tm = term(t);
      if constexpr (kSkipZero) {
        if (tm.scale == 0.0f) continue;
      }
      acc += tm.scale * tm.row[j];
    }
    out[j] = static_cast<float>(acc);
  }
}

#if defined(__x86_64__) || defined(__i386__)
template <typename Body, typename... Args>
__attribute__((target("avx2"))) void RunAvx2(Args... args) {
  Body::Run(args...);
}
#endif

template <typename Body, typename... Args>
void RunGeneric(Args... args) {
  Body::Run(args...);
}

/// Runs `Body::Run(args...)` — an always-inline kernel body — compiled for
/// AVX2 when the CPU has it, else for the baseline ISA.
template <typename Body, typename... Args>
void Dispatch(Args... args) {
#if defined(__x86_64__) || defined(__i386__)
  if (HasAvx2()) {
    RunAvx2<Body>(args...);
    return;
  }
#endif
  RunGeneric<Body>(args...);
}

}  // namespace sgnn::simd

#endif  // SGNN_TENSOR_SIMD_H_
