// Op-graph execution drivers: record a filter computation onto an op-graph,
// then fuse + plan + execute it (docs/OPGRAPH.md). This is the propagation
// path of every recorded filter: PolynomialBasisFilter's Forward, Backward
// and Precompute all run through RunOnGraph, and the dense
// eigendecomposition oracle (sgnn_conformance) judges its results.
//
// This header is where the opgraph and sparse layers meet: opgraph itself
// never includes sparse/, so the CSR propagation matrix is adapted onto
// opgraph::SpmmOperator here, one layer up.

#ifndef SGNN_CORE_LAZY_H_
#define SGNN_CORE_LAZY_H_

#include <functional>
#include <vector>

#include "core/filter.h"
#include "opgraph/executor.h"
#include "sparse/csr.h"

namespace sgnn::filters {

/// Adapts the CSR propagation matrix Ã onto opgraph's abstract operator.
class CsrSpmmOperator : public opgraph::SpmmOperator {
 public:
  explicit CsrSpmmOperator(const sparse::CsrMatrix* prop) : prop_(prop) {}

  int64_t n() const override { return prop_->n(); }
  void Apply(const Matrix& x, Matrix* out) const override {
    prop_->SpMM(x, out);
  }
  /// The step runs on SpMM's register tiles (CsrMatrix::SpMM with an
  /// epilogue), not as a second pass.
  void ApplyAffine(const Matrix& x, const ops::AffineEpilogue& ep,
                   Matrix* out) const override {
    prop_->SpMM(x, ep, out);
  }

 private:
  const sparse::CsrMatrix* prop_;
};

/// Records one computation over the graph input `x`; pins its results with
/// Graph::MarkOutput.
using GraphRecorder =
    std::function<Status(opgraph::Graph* graph, opgraph::ValueId x,
                         const opgraph::SpmmOperator* adj)>;

/// Runs `record` on a fresh op-graph on ctx.device (where `x` must live),
/// with `adj` applying ctx.op when set, else ctx.prop; then fuses, plans and
/// executes it. Returns the recorder's error, or OutOfMemory when execution
/// newly latched the simulated accelerator OOM flag (results are still fully
/// computed; see opgraph/executor.h).
[[nodiscard]] Status RunOnGraph(const FilterContext& ctx, const Matrix& x,
                                const GraphRecorder& record,
                                opgraph::PipelineStats* stats = nullptr);

/// y = g(L̃; θ) x via RunOnGraph. Returns NotImplemented for filters without
/// op-graph recording, and OutOfMemory as RunOnGraph does.
[[nodiscard]] Status LazyForward(SpectralFilter* filter,
                                 const FilterContext& ctx, const Matrix& x,
                                 Matrix* y,
                                 opgraph::PipelineStats* stats = nullptr);

/// SpectralFilter::Precompute via RunOnGraph: each term is planned directly
/// into its slot of `terms`.
[[nodiscard]] Status LazyPrecompute(SpectralFilter* filter,
                                    const FilterContext& ctx, const Matrix& x,
                                    std::vector<Matrix>* terms,
                                    opgraph::PipelineStats* stats = nullptr);

}  // namespace sgnn::filters

#endif  // SGNN_CORE_LAZY_H_
