// Dense linear-algebra kernels over Matrix.
//
// These implement the "transformation" side of the paper's complexity model
// (Section 2.2): scalar ops cost O(nF), weight multiplications O(nF^2).

#ifndef SGNN_TENSOR_OPS_H_
#define SGNN_TENSOR_OPS_H_

#include <vector>

#include "tensor/matrix.h"

namespace sgnn::ops {

/// ISA the vector kernels (SpMM, the GEMM family, the elementwise and
/// column kernels) run on: "avx2" or "generic" (baseline x86-64 or a
/// non-x86 build). Results are bit-identical either way; journal rows and
/// benches record it so kernel timings are comparable.
const char* KernelIsa();

/// out = a * b. Shapes: (n,k) x (k,m) -> (n,m). `out` is overwritten and must
/// be pre-shaped; aliasing with inputs is not allowed.
void Gemm(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b. Shapes: (k,n) x (k,m) -> (n,m).
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T. Shapes: (n,k) x (m,k) -> (n,m).
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// y += alpha * x (same shape).
void Axpy(float alpha, const Matrix& x, Matrix* y);

/// x *= alpha.
void Scale(float alpha, Matrix* x);

/// The affine step of a three-term recurrence applied to a freshly
/// propagated block v: v = ca·v, then v += ci·in1, then v += cp·in2, where a
/// null in1/in2 skips its step. in1/in2 have v's shape.
struct AffineEpilogue {
  float ca = 1.0f;
  float ci = 0.0f;
  const Matrix* in1 = nullptr;
  float cp = 0.0f;
  const Matrix* in2 = nullptr;
};

/// Applies `ep` to every element of `out` in one pass; bit-identical to
/// Scale(ca, out), then Axpy(ci, *in1, out), then Axpy(cp, *in2, out).
/// `out` must not alias in1 or in2.
void ApplyEpilogue(const AffineEpilogue& ep, Matrix* out);

/// y = x (copies values; shapes must match).
void Copy(const Matrix& x, Matrix* y);

/// out = a + b.
void Add(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a - b.
void Sub(const Matrix& a, const Matrix& b, Matrix* out);

/// Elementwise product: y *= x.
void MulInPlace(const Matrix& x, Matrix* y);

/// Sum over all elements of the elementwise product <a, b> (Frobenius inner
/// product). Used for filter-parameter gradients.
double Dot(const Matrix& a, const Matrix& b);

/// (*out)[t] = Dot(a, *b[t]) for every t, bit for bit, in one pass over
/// `a`: each term keeps its own double accumulator in Dot's order. Used for
/// the K+1 θ-gradients of a polynomial filter.
void Dots(const Matrix& a, const std::vector<const Matrix*>& b,
          std::vector<double>* out);

/// Adds `bias` (1 x F) to every row of x.
void AddRowBroadcast(const Matrix& bias, Matrix* x);

/// Column-wise sums of x into out (1 x F). Used for bias gradients.
void ColumnSum(const Matrix& x, Matrix* out);

/// Per-column L2 norms of x into out (1 x F).
void ColumnNorm(const Matrix& x, Matrix* out);

/// Per-column inner products sum_r a[r][c]*b[r][c] into out (1 x F).
/// Used by the OptBasis filter's per-channel orthogonalization.
void ColumnDot(const Matrix& a, const Matrix& b, Matrix* out);

/// Scales column c of x by alpha[0][c].
void ColumnScale(const Matrix& alpha, Matrix* x);

/// y += x * diag(alpha) where alpha is 1 x F. Channel-wise accumulate.
void AxpyColumnwise(const Matrix& alpha, const Matrix& x, Matrix* y);

/// L2-normalizes each row of x in place (zero rows left untouched).
void RowL2Normalize(Matrix* x);

/// x = max(x, 0) elementwise — the MLP activation.
void ReluInPlace(Matrix* x);

/// Zeroes grad where the cached pre-activation was <= 0 (ReLU backward).
void ReluBackwardInPlace(const Matrix& preact, Matrix* grad);

/// True when every element is finite (no NaN/Inf). Used by the training run
/// guards for divergence detection.
bool AllFinite(const Matrix& x);

}  // namespace sgnn::ops

#endif  // SGNN_TENSOR_OPS_H_
