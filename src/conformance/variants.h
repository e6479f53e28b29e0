// Variant conformance — every other way of executing a filter, judged by the
// same dense spectral oracle (oracle.h).
//
// Each row of the variant table is one execution: fp16 or int8 quantized MB
// terms (src/quant/), or sharded propagation (src/shard/). A row passes when
// its exactness contract holds and its output is within OracleTolerance +
// slack of U g(Λ) Uᵀ x. Rows, slacks, contracts and the skip rule are listed
// in docs/CONFORMANCE.md ("Variant table").

#ifndef SGNN_CONFORMANCE_VARIANTS_H_
#define SGNN_CONFORMANCE_VARIANTS_H_

#include <functional>
#include <string>
#include <vector>

#include "conformance/oracle.h"
#include "core/filter.h"
#include "eval/eigen.h"
#include "sparse/csr.h"
#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::conformance {

/// What one variant produced for one filter.
struct VariantOutput {
  Matrix y;            ///< gated against the dense reference
  std::string broken;  ///< non-empty when the row's exactness contract fails
};

/// One row of the variant table.
struct Variant {
  std::string name;
  double slack = 0.0;            ///< added to OracleTolerance(filter)
  bool needs_minibatch = false;  ///< full-batch-only filters are skipped
  std::function<Result<VariantOutput>(filters::SpectralFilter* filter,
                                      const filters::FilterContext& ctx,
                                      const Matrix& x)>
      run;
};

/// The variant table: fp16, int8, shard.
const std::vector<Variant>& Variants();

/// Outcome of one variant-vs-oracle comparison.
struct VariantReport {
  std::string variant;
  std::string filter;
  double rel_error = 0.0;  ///< variant output vs dense oracle
  double tolerance = 0.0;  ///< OracleTolerance(filter) + slack
  bool skipped = false;    ///< FB-only filter on an MB row, Lanczos breakdown
  bool pass = false;
  std::string detail;
};

/// Runs `row` for `filter_name` on (norm_adj, x) on the host and compares
/// the output against the dense spectral reference built from `eig`.
/// InvalidArgument for unknown filters or mismatched shapes.
[[nodiscard]] Result<VariantReport> CheckVariant(
    const Variant& row, const std::string& filter_name,
    const sparse::CsrMatrix& norm_adj, const eval::EigenDecomposition& eig,
    const Matrix& x, const OracleOptions& options = {});

/// CheckVariant for every row of Variants() × `filters` (all taxonomy
/// filters when empty), row-major.
[[nodiscard]] Result<std::vector<VariantReport>> CheckAllVariants(
    const sparse::CsrMatrix& norm_adj, const eval::EigenDecomposition& eig,
    const Matrix& x, const std::vector<std::string>& filters = {},
    const OracleOptions& options = {});

/// True when every report passed.
bool AllPass(const std::vector<VariantReport>& reports);

/// One line per report, failures marked.
std::string FormatReports(const std::vector<VariantReport>& reports);

}  // namespace sgnn::conformance

#endif  // SGNN_CONFORMANCE_VARIANTS_H_
