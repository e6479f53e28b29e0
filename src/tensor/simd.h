// Vector kernel bodies shared by the SpMM (sparse/csr.cc) and tensor
// (tensor/ops.cc) kernels, written once with GCC vector extensions and
// compiled twice: for AVX2 and for baseline x86-64. Only kernel sources
// include this header; callers reach the kernels through ops.h and csr.h.
//
// Three body shapes live here:
//   * AccumulateRow: register-tiled row accumulation (SpMM, the GEMM
//     family). An output row is
//       out[j] = init[j] + s_0 * row_0[j] + s_1 * row_1[j] + ...
//     over its terms t in ascending order, optionally skipping terms whose
//     scale is zero. An output tile lives in vector registers for the whole
//     term loop, passes through an optional epilogue (AffineRow: the
//     recurrence step ca·v + ci·in1 + cp·in2) and is stored once.
//   * ForEach: one elementwise step per element (axpy, scale, relu, ...),
//     on 8-float vectors and then a scalar tail.
//   * ReduceColumns: per-column sums over ascending rows, with the columns
//     spread across vector lanes.
// In each, every element sees the same multiplies and adds, in the same
// order, as the scalar loop it replaced, whether it lands in a vector or in
// the tail, so every non-NaN result bit is that of the scalar loop on every
// ISA, at any thread count and at any offset of a row within its batch. Two
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

/// Loads and stores of one float or one 8-float vector, so a body written
/// once over `V` runs on both the vector part and the scalar tail.
SGNN_SIMD_INLINE void LoadLanes(const float* p, float* v) { *v = *p; }
SGNN_SIMD_INLINE void LoadLanes(const float* p, F32x8* v) {
  std::memcpy(v, p, sizeof(F32x8));
}
/// Widening loads of one float or four floats into double lanes (exact).
SGNN_SIMD_INLINE void LoadLanes(const float* p, double* v) { *v = *p; }
SGNN_SIMD_INLINE void LoadLanes(const float* p, F64x4* v) {
  F32x4 f;
  std::memcpy(&f, p, sizeof(F32x4));
  *v = __builtin_convertvector(f, F64x4);
}
SGNN_SIMD_INLINE void StoreLanes(const float& v, float* p) { *p = v; }
SGNN_SIMD_INLINE void StoreLanes(const F32x8& v, float* p) {
  std::memcpy(p, &v, sizeof(F32x8));
}

/// AccumulateRow epilogue that stores the accumulated tile unchanged.
struct NoEpilogue {
  SGNN_SIMD_INLINE NoEpilogue AtOffset(int64_t /*offset*/) const {
    return *this;
  }
  template <typename V>
  SGNN_SIMD_INLINE void operator()(V* /*v*/, int64_t /*j*/) const {}
};

/// AccumulateRow epilogue for one output row of a three-term recurrence
/// step: v = ca·v, then v += ci·in1[j], then v += cp·in2[j]; a null row
/// skips its step. Each step is a rounded multiply then a rounded add, so
/// the row equals ops::Scale(ca) followed by ops::Axpy(ci, in1) and
/// ops::Axpy(cp, in2), bit for bit. in1/in2 point at the output row's
/// counterparts.
struct AffineRow {
  float ca, ci, cp;
  const float* in1;
  const float* in2;

  /// The epilogue for the row that starts `offset` elements further on.
  SGNN_SIMD_INLINE AffineRow AtOffset(int64_t offset) const {
    return {ca, ci, cp, in1 != nullptr ? in1 + offset : nullptr,
            in2 != nullptr ? in2 + offset : nullptr};
  }

  template <typename V>
  SGNN_SIMD_INLINE void operator()(V* v, int64_t j) const {
    *v *= ca;
    if (in1 != nullptr) {
      V x;
      LoadLanes(in1 + j, &x);
      *v += ci * x;
    }
    if (in2 != nullptr) {
      V x;
      LoadLanes(in2 + j, &x);
      *v += cp * x;
    }
  }
};

/// out[j, j + kVecs * lanes) over all terms; see AccumulateRow.
template <typename T, int kVecs, bool kSkipZero, bool kAccumulate,
          typename TermFn, typename Epilogue>
SGNN_SIMD_INLINE void AccumulateTile(int64_t num_terms, const TermFn& term,
                                     int64_t j, float* out,
                                     const Epilogue& epilogue) {
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
    epilogue(&acc[r], j + r * L::kWidth);
    L::StoreVec(acc[r], out + j + r * L::kWidth);
  }
}

/// out[0, width) = (kAccumulate ? out : 0) + sum_t term(t).scale *
/// term(t).row[0, width), accumulated in T over ascending t and rounded to
/// float once per element. kSkipZero drops terms whose scale is zero (so a
/// zero times an Inf or NaN row entry contributes nothing). `epilogue`
/// (AffineRow, or NoEpilogue) runs on each accumulated tile in registers
/// just before it is stored. Columns go in 8-vector tiles, then single
/// vectors, then a scalar tail.
template <typename T, bool kSkipZero, bool kAccumulate, typename TermFn,
          typename Epilogue = NoEpilogue>
SGNN_SIMD_INLINE void AccumulateRow(int64_t num_terms, const TermFn& term,
                                    int64_t width, float* out,
                                    const Epilogue& epilogue = {}) {
  static_assert(!kAccumulate || sizeof(T) == sizeof(float),
                "accumulating loads float outputs into float lanes only");
  constexpr int64_t kLanes = Lanes<T>::kWidth;
  int64_t j = 0;
  for (; j + 8 * kLanes <= width; j += 8 * kLanes) {
    AccumulateTile<T, 8, kSkipZero, kAccumulate>(num_terms, term, j, out,
                                                 epilogue);
  }
  for (; j + kLanes <= width; j += kLanes) {
    AccumulateTile<T, 1, kSkipZero, kAccumulate>(num_terms, term, j, out,
                                                 epilogue);
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
    epilogue(&acc, j);
    out[j] = static_cast<float>(acc);
  }
}

/// Runs `op.template Step<V>(i)` for every i in [lo, hi): with V = F32x8 on
/// whole 8-float vectors, then with V = float on the tail. `op` writes the
/// same expression for both, so an element's bits do not depend on whether
/// it lands in a vector or in the tail, nor on where `lo` falls.
template <typename Op>
SGNN_SIMD_INLINE void ForEach(const Op& op, int64_t lo, int64_t hi) {
  int64_t i = lo;
  for (; i + 8 <= hi; i += 8) op.template Step<F32x8>(i);
  for (; i < hi; ++i) op.template Step<float>(i);
}

/// Kernel body that runs ForEach; dispatch as
/// `Dispatch<ForEachBody>(op, lo, hi)`.
struct ForEachBody {
  template <typename Op>
  static SGNN_SIMD_INLINE void Run(Op op, int64_t lo, int64_t hi) {
    ForEach(op, lo, hi);
  }
};

/// out[j, j + kVecs * lanes) of ReduceColumns.
template <typename T, int kVecs, typename Elem>
SGNN_SIMD_INLINE void ReduceColumnTile(int64_t rows, const Elem& elem,
                                       int64_t j, T* out) {
  using L = Lanes<T>;
  typename L::Vec acc[kVecs] = {};
  for (int64_t i = 0; i < rows; ++i) {
#pragma GCC unroll 8
    for (int r = 0; r < kVecs; ++r) {
      typename L::Vec v;
      elem(i, j + r * L::kWidth, &v);
      acc[r] += v;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kVecs; ++r) {
    std::memcpy(out + j + r * L::kWidth, &acc[r], sizeof(acc[r]));
  }
}

/// out[j] = 0 + sum over rows i = 0, 1, ... of elem(i, j), for j in
/// [0, cols), accumulated in T in ascending-row order per column. `elem`
/// writes the term of row i at column j into a T (scalar tail) or into a
/// T vector covering columns [j, j + lanes). Columns go in 8-vector tiles,
/// then single vectors, then a scalar tail.
template <typename T, typename Elem>
SGNN_SIMD_INLINE void ReduceColumns(int64_t rows, int64_t cols,
                                    const Elem& elem, T* out) {
  constexpr int64_t kLanes = Lanes<T>::kWidth;
  int64_t j = 0;
  for (; j + 8 * kLanes <= cols; j += 8 * kLanes) {
    ReduceColumnTile<T, 8>(rows, elem, j, out);
  }
  for (; j + kLanes <= cols; j += kLanes) {
    ReduceColumnTile<T, 1>(rows, elem, j, out);
  }
  for (; j < cols; ++j) {
    T acc = 0;
    for (int64_t i = 0; i < rows; ++i) {
      T v;
      elem(i, j, &v);
      acc += v;
    }
    out[j] = acc;
  }
}

/// Kernel body that runs ReduceColumns; dispatch as
/// `Dispatch<ReduceColumnsBody>(elem, rows, cols, out)`.
struct ReduceColumnsBody {
  template <typename Elem, typename T>
  static SGNN_SIMD_INLINE void Run(Elem elem, int64_t rows, int64_t cols,
                                   T* out) {
    ReduceColumns<T>(rows, cols, elem, out);
  }
};

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
