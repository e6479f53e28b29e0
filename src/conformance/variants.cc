#include "conformance/variants.h"

#include <cstring>
#include <sstream>
#include <utility>

#include "core/registry.h"
#include "quant/quantize.h"
#include "shard/plan.h"
#include "shard/spmm.h"

namespace sgnn::conformance {

namespace {

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

// Precompute, then quantize + dequantize each term (exactly what the
// serving layer's dequantize-on-load path feeds CombineTerms), then combine.
template <quant::Precision precision>
Result<VariantOutput> RunQuantized(filters::SpectralFilter* filter,
                                   const filters::FilterContext& ctx,
                                   const Matrix& x) {
  std::vector<Matrix> terms;
  SGNN_RETURN_IF_ERROR(filter->Precompute(ctx, x, &terms));
  std::vector<const Matrix*> ptrs;
  ptrs.reserve(terms.size());
  for (Matrix& t : terms) {
    SGNN_ASSIGN_OR_RETURN(auto q, quant::Quantize(t, precision, {}));
    quant::Dequantize(q, &t);
    ptrs.push_back(&t);
  }
  VariantOutput out;
  filter->CombineTerms(ptrs, &out.y, /*cache=*/false);
  return out;
}

// Forward (and Precompute, for MB-capable filters) through the sharded
// operator at each K must be memcmp-equal to the unsharded path.
Result<VariantOutput> RunSharded(filters::SpectralFilter* filter,
                                 const filters::FilterContext& ctx,
                                 const Matrix& x) {
  const bool minibatch = filter->SupportsMiniBatch();
  Matrix y_base;
  filter->Forward(ctx, x, &y_base, /*cache=*/false);
  std::vector<Matrix> terms_base;
  if (minibatch) SGNN_RETURN_IF_ERROR(filter->Precompute(ctx, x, &terms_base));

  VariantOutput out;
  for (const int k : {1, 2, 4, 8}) {
    const shard::ShardPlan plan = shard::BuildShardPlan(
        *ctx.prop, shard::PartitionOptions{k, /*seed=*/7});
    const shard::ShardedSpmmOperator op(&plan);
    filters::FilterContext sharded_ctx = ctx;
    sharded_ctx.op = &op;

    Matrix y_k;
    filter->Forward(sharded_ctx, x, &y_k, /*cache=*/false);
    if (!BitIdentical(y_base, y_k)) {
      out.broken = "forward differs at K=" + std::to_string(k);
    }
    out.y = std::move(y_k);

    if (minibatch) {
      std::vector<Matrix> terms_k;
      SGNN_RETURN_IF_ERROR(filter->Precompute(sharded_ctx, x, &terms_k));
      bool same = terms_k.size() == terms_base.size();
      for (size_t i = 0; same && i < terms_k.size(); ++i) {
        same = BitIdentical(terms_base[i], terms_k[i]);
      }
      if (!same) {
        out.broken = "precompute terms differ at K=" + std::to_string(k);
      }
    }
  }
  return out;
}

}  // namespace

const std::vector<Variant>& Variants() {
  // fp16 rounds each stored term value at ~2^-11 relative; the combine sum
  // stays well inside 4e-3 extra for every basis. int8's per-channel step is
  // scale = clip/127, so each term carries up to clip/254 absolute error and
  // the K-term combine adds them — 3e-2 of slack bounds every Table 1 MB
  // filter at the conformance graph size (measured table in
  // docs/QUANTIZATION.md). Sharding must not change a bit, so it gets none.
  static const std::vector<Variant> kVariants = {
      {"fp16", 4e-3, /*needs_minibatch=*/true,
       RunQuantized<quant::Precision::kFp16>},
      {"int8", 3e-2, /*needs_minibatch=*/true,
       RunQuantized<quant::Precision::kInt8>},
      {"shard", 0.0, /*needs_minibatch=*/false, RunSharded},
  };
  return kVariants;
}

Result<VariantReport> CheckVariant(const Variant& row,
                                   const std::string& filter_name,
                                   const sparse::CsrMatrix& norm_adj,
                                   const eval::EigenDecomposition& eig,
                                   const Matrix& x,
                                   const OracleOptions& options) {
  if (x.rows() != norm_adj.n()) {
    return Status::InvalidArgument(row.name +
                                   " conformance: x rows != graph nodes");
  }
  if (static_cast<int64_t>(eig.values.size()) != x.rows()) {
    return Status::InvalidArgument(
        row.name + " conformance: eigendecomposition size mismatch");
  }
  SGNN_ASSIGN_OR_RETURN(
      auto filter,
      filters::CreateFilter(filter_name, options.hops, options.hp, x.cols()));

  VariantReport report;
  report.variant = row.name;
  report.filter = filter_name;
  report.tolerance = OracleTolerance(filter_name) + row.slack;

  if (row.needs_minibatch && !filter->SupportsMiniBatch()) {
    report.skipped = true;
    report.pass = true;
    report.detail = "full-batch only: no MB artifact";
    return report;
  }

  filters::FilterContext ctx;
  ctx.prop = &norm_adj;
  ctx.device = Device::kHost;
  SGNN_ASSIGN_OR_RETURN(VariantOutput out, row.run(filter.get(), ctx, x));

  // The dense reference must come after the row ran: data-dependent bases
  // (optbasis) size their θ lazily on first use, and the double-precision
  // reference reads those live parameters.
  const Matrix ref = DenseReference(filter.get(), filter_name, norm_adj, eig,
                                    x, options.hops, &report.skipped);
  if (!report.skipped) report.rel_error = RelativeFrobenius(out.y, ref);
  report.pass = out.broken.empty() && report.rel_error <= report.tolerance;
  if (!out.broken.empty()) {
    report.detail = out.broken;
  } else if (!report.pass) {
    report.detail = "output diverges from dense spectral operator";
  } else if (report.skipped) {
    report.detail = "lanczos breakdown: dense reference undefined";
  }
  return report;
}

Result<std::vector<VariantReport>> CheckAllVariants(
    const sparse::CsrMatrix& norm_adj, const eval::EigenDecomposition& eig,
    const Matrix& x, const std::vector<std::string>& filters,
    const OracleOptions& options) {
  const std::vector<std::string> names =
      filters.empty() ? filters::AllFilterNames() : filters;
  std::vector<VariantReport> reports;
  for (const Variant& row : Variants()) {
    for (const auto& name : names) {
      SGNN_ASSIGN_OR_RETURN(
          auto report, CheckVariant(row, name, norm_adj, eig, x, options));
      reports.push_back(std::move(report));
    }
  }
  return reports;
}

bool AllPass(const std::vector<VariantReport>& reports) {
  for (const auto& r : reports) {
    if (!r.pass) return false;
  }
  return true;
}

std::string FormatReports(const std::vector<VariantReport>& reports) {
  std::ostringstream os;
  for (const auto& r : reports) {
    os << (r.pass ? "  ok  " : "FAIL  ") << r.variant << "  " << r.filter;
    if (!r.skipped) os << "  rel=" << r.rel_error << " tol=" << r.tolerance;
    if (!r.detail.empty()) os << "  (" << r.detail << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace sgnn::conformance
