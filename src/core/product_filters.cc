#include "core/product_filters.h"

#include <cmath>

#include "tensor/ops.h"

namespace sgnn::filters {

namespace {

double Jit(Rng* rng, double scale) {
  return rng != nullptr ? rng->Uniform(-scale, scale) : 0.0;
}

/// Softmax over a small vector.
std::vector<double> Softmax(const std::vector<double>& z) {
  double maxv = z[0];
  for (double v : z) maxv = std::max(maxv, v);
  std::vector<double> s(z.size());
  double denom = 0.0;
  for (size_t i = 0; i < z.size(); ++i) {
    s[i] = std::exp(z[i] - maxv);
    denom += s[i];
  }
  for (auto& v : s) v /= denom;
  return s;
}

/// Chain rule through softmax: given dL/ds, returns dL/dz.
std::vector<double> SoftmaxGrad(const std::vector<double>& s,
                                const std::vector<double>& ds) {
  double dot = 0.0;
  for (size_t i = 0; i < s.size(); ++i) dot += s[i] * ds[i];
  std::vector<double> dz(s.size());
  for (size_t i = 0; i < s.size(); ++i) dz[i] = s[i] * (ds[i] - dot);
  return dz;
}

}  // namespace

ProductFilter::ProductFilter(std::string name, FilterType type, int hops,
                             BasisMatrix basis, bool mini_batch,
                             FilterHyperParams hp)
    : hp_(hp),
      name_(std::move(name)),
      type_(type),
      hops_(hops),
      basis_(basis),
      mini_batch_(mini_batch) {
  SGNN_CHECK(hops >= 1, "ProductFilter requires at least one hop");
}

void ProductFilter::ResetParameters(Rng* rng) {
  params_.Reset(DefaultRaw(hops_, rng));
  ClearCache();
}

void ProductFilter::ApplyBasis(const FilterContext& ctx, const Matrix& x,
                               Matrix* y) const {
  if (basis_ == BasisMatrix::kAdj) {
    propagate::Adj(ctx, x, y);
  } else {
    propagate::Lap(ctx, x, y);
  }
}

void ProductFilter::Forward(const FilterContext& ctx, const Matrix& x,
                            Matrix* y, bool cache) {
  if (cache) {
    cached_h_.clear();
    cached_h_.reserve(static_cast<size_t>(hops_) + 1);
  }
  Matrix h = x;
  Matrix bh(x.rows(), x.cols(), ctx.device);
  for (int k = 1; k <= hops_; ++k) {
    if (cache) cached_h_.push_back(h);
    double p = 0.0, q = 0.0;
    Factor(k, &p, &q);
    ApplyBasis(ctx, h, &bh);
    // h <- p h + q B h.
    ops::Scale(static_cast<float>(p), &h);
    ops::Axpy(static_cast<float>(q), bh, &h);
  }
  if (cache) cached_h_.push_back(h);
  *y = std::move(h);
}

void ProductFilter::Backward(const FilterContext& ctx, const Matrix& grad_y,
                             Matrix* grad_x) {
  SGNN_CHECK(cached_h_.size() == static_cast<size_t>(hops_) + 1,
             "ProductFilter::Backward requires Forward(cache=true)");
  Matrix g = grad_y;
  Matrix scratch(grad_y.rows(), grad_y.cols(), ctx.device);
  for (int k = hops_; k >= 1; --k) {
    const Matrix& h_prev = cached_h_[static_cast<size_t>(k - 1)];
    double p = 0.0, q = 0.0;
    Factor(k, &p, &q);
    // dp_k = <g, h_{k-1}>, dq_k = <g, B h_{k-1}>.
    ApplyBasis(ctx, h_prev, &scratch);
    const double dp = ops::Dot(g, h_prev);
    const double dq = ops::Dot(g, scratch);
    FactorGrad(k, dp, dq);
    // g <- p g + q B g (B symmetric).
    ApplyBasis(ctx, g, &scratch);
    ops::Scale(static_cast<float>(p), &g);
    ops::Axpy(static_cast<float>(q), scratch, &g);
  }
  if (grad_x != nullptr) *grad_x = std::move(g);
}

void ProductFilter::ClearCache() { cached_h_.clear(); }

double ProductFilter::Response(double lambda) const {
  const double b = basis_ == BasisMatrix::kAdj ? (1.0 - lambda) : lambda;
  double r = 1.0;
  for (int k = 1; k <= hops_; ++k) {
    double p = 0.0, q = 0.0;
    Factor(k, &p, &q);
    r *= (p + q * b);
  }
  return r;
}

std::vector<double> ProductFilter::ExpandedCoefficients() const {
  // Coefficients of Π (p_k + q_k z) over z.
  std::vector<double> coeff{1.0};
  for (int k = 1; k <= hops_; ++k) {
    double p = 0.0, q = 0.0;
    Factor(k, &p, &q);
    std::vector<double> next(coeff.size() + 1, 0.0);
    for (size_t i = 0; i < coeff.size(); ++i) {
      next[i] += p * coeff[i];
      next[i + 1] += q * coeff[i];
    }
    coeff = std::move(next);
  }
  return coeff;
}

Status ProductFilter::Precompute(const FilterContext& ctx, const Matrix& x,
                                 std::vector<Matrix>* terms) {
  if (!mini_batch_) {
    return Status::NotImplemented(name_ +
                                  ": iterative architecture, full-batch only");
  }
  terms->clear();
  terms->reserve(static_cast<size_t>(hops_) + 1);
  Matrix cur = x;
  terms->push_back(cur);
  for (int k = 1; k <= hops_; ++k) {
    Matrix next(x.rows(), x.cols(), ctx.device);
    ApplyBasis(ctx, cur, &next);
    terms->push_back(next);
    cur = std::move(next);
  }
  return Status::OK();
}

void ProductFilter::CombineTerms(const std::vector<const Matrix*>& batch_terms,
                                 Matrix* y, bool cache) {
  (void)cache;
  const std::vector<double> coeff = ExpandedCoefficients();
  SGNN_CHECK(batch_terms.size() == coeff.size(),
             "ProductFilter::CombineTerms term count mismatch");
  *y = Matrix(batch_terms[0]->rows(), batch_terms[0]->cols(),
              batch_terms[0]->device());
  for (size_t k = 0; k < coeff.size(); ++k) {
    if (coeff[k] != 0.0)
      ops::Axpy(static_cast<float>(coeff[k]), *batch_terms[k], y);
  }
}

void ProductFilter::BackwardCombine(const std::vector<const Matrix*>& batch_terms,
                                    const Matrix& grad_y) {
  // e_k = <ḡ, B^k x_batch>.
  std::vector<double> e;
  ops::Dots(grad_y, batch_terms, &e);
  // Leave-one-out products: for each hop j, c = (p_j + q_j z) * R_j(z) with
  // R_j = Π_{k != j}; then dL/dp_j = Σ_k e_k R_j[k], dL/dq_j = Σ e_k R_j[k-1].
  for (int j = 1; j <= hops_; ++j) {
    std::vector<double> rest{1.0};
    for (int k = 1; k <= hops_; ++k) {
      if (k == j) continue;
      double p = 0.0, q = 0.0;
      Factor(k, &p, &q);
      std::vector<double> next(rest.size() + 1, 0.0);
      for (size_t i = 0; i < rest.size(); ++i) {
        next[i] += p * rest[i];
        next[i + 1] += q * rest[i];
      }
      rest = std::move(next);
    }
    double dp = 0.0, dq = 0.0;
    for (size_t i = 0; i < rest.size(); ++i) {
      dp += e[i] * rest[i];
      if (i + 1 < e.size()) dq += e[i + 1] * rest[i];
    }
    FactorGrad(j, dp, dq);
  }
}

// -------------------------------------------------------------- VarLinear
VarLinearFilter::VarLinearFilter(int hops, FilterHyperParams hp)
    : ProductFilter("var_linear", FilterType::kVariable, hops,
                    BasisMatrix::kAdj, /*mini_batch=*/true, hp) {}

void VarLinearFilter::Factor(int k, double* p, double* q) const {
  const double a = std::fabs(params_.values()[static_cast<size_t>(k - 1)]);
  *p = a / (1.0 + a);
  *q = 1.0 / (1.0 + a);
}

void VarLinearFilter::FactorGrad(int k, double dp, double dq) {
  const double raw = params_.values()[static_cast<size_t>(k - 1)];
  const double a = std::fabs(raw);
  const double sign = raw >= 0.0 ? 1.0 : -1.0;
  const double denom = (1.0 + a) * (1.0 + a);
  params_.grads()[static_cast<size_t>(k - 1)] += sign * (dp - dq) / denom;
}

std::vector<double> VarLinearFilter::DefaultRaw(int hops, Rng* rng) const {
  std::vector<double> raw(static_cast<size_t>(hops), 1.0);
  for (auto& v : raw) v += Jit(rng, 0.05);
  return raw;
}

// ------------------------------------------------------------------ FAGNN
FagnnFilter::FagnnFilter(int hops, FilterHyperParams hp)
    : ProductFilter("fagnn", FilterType::kBank, hops, BasisMatrix::kLap,
                    /*mini_batch=*/true, hp) {}

void FagnnFilter::Factor(int k, double* p, double* q) const {
  const double g1 = params_.values()[static_cast<size_t>(2 * (k - 1))];
  const double g2 = params_.values()[static_cast<size_t>(2 * (k - 1) + 1)];
  const double beta = hp_.beta;
  *p = g1 * (beta + 1.0) + g2 * (beta - 1.0);
  *q = g2 - g1;
}

void FagnnFilter::FactorGrad(int k, double dp, double dq) {
  const double beta = hp_.beta;
  params_.grads()[static_cast<size_t>(2 * (k - 1))] +=
      dp * (beta + 1.0) - dq;
  params_.grads()[static_cast<size_t>(2 * (k - 1) + 1)] +=
      dp * (beta - 1.0) + dq;
}

std::vector<double> FagnnFilter::DefaultRaw(int hops, Rng* rng) const {
  std::vector<double> raw(static_cast<size_t>(2 * hops));
  for (int k = 0; k < hops; ++k) {
    raw[static_cast<size_t>(2 * k)] = 0.55 + Jit(rng, 0.05);
    raw[static_cast<size_t>(2 * k + 1)] = 0.25 + Jit(rng, 0.05);
  }
  return raw;
}

// ------------------------------------------------------------------ FBGNN
FbgnnFilter::FbgnnFilter(int hops, bool variant2, FilterHyperParams hp)
    : ProductFilter(variant2 ? "fbgnn2" : "fbgnn1", FilterType::kBank, hops,
                    BasisMatrix::kLap, /*mini_batch=*/false, hp),
      variant2_(variant2) {}

void FbgnnFilter::Factor(int k, double* p, double* q) const {
  double g1 = params_.values()[static_cast<size_t>(2 * (k - 1))];
  double g2 = params_.values()[static_cast<size_t>(2 * (k - 1) + 1)];
  if (variant2_) {
    const auto s = Softmax({g1, g2});
    g1 = s[0];
    g2 = s[1];
  }
  // γ1 (I - L̃) + γ2 L̃ = γ1 I + (γ2 - γ1) L̃.
  *p = g1;
  *q = g2 - g1;
}

void FbgnnFilter::FactorGrad(int k, double dp, double dq) {
  const double dg1 = dp - dq;
  const double dg2 = dq;
  auto& grads = params_.grads();
  if (variant2_) {
    const auto& raw = params_.values();
    const auto s = Softmax({raw[static_cast<size_t>(2 * (k - 1))],
                            raw[static_cast<size_t>(2 * (k - 1) + 1)]});
    const auto dz = SoftmaxGrad(s, {dg1, dg2});
    grads[static_cast<size_t>(2 * (k - 1))] += dz[0];
    grads[static_cast<size_t>(2 * (k - 1) + 1)] += dz[1];
  } else {
    grads[static_cast<size_t>(2 * (k - 1))] += dg1;
    grads[static_cast<size_t>(2 * (k - 1) + 1)] += dg2;
  }
}

std::vector<double> FbgnnFilter::DefaultRaw(int hops, Rng* rng) const {
  std::vector<double> raw(static_cast<size_t>(2 * hops));
  for (int k = 0; k < hops; ++k) {
    raw[static_cast<size_t>(2 * k)] = (variant2_ ? 1.0 : 0.75) + Jit(rng, 0.05);
    raw[static_cast<size_t>(2 * k + 1)] =
        (variant2_ ? 0.0 : 0.25) + Jit(rng, 0.05);
  }
  return raw;
}

// ----------------------------------------------------------------- ACMGNN
AcmgnnFilter::AcmgnnFilter(int hops, bool variant2, FilterHyperParams hp)
    : ProductFilter(variant2 ? "acmgnn2" : "acmgnn1", FilterType::kBank, hops,
                    BasisMatrix::kLap, /*mini_batch=*/false, hp),
      variant2_(variant2) {}

void AcmgnnFilter::Factor(int k, double* p, double* q) const {
  double g1 = params_.values()[static_cast<size_t>(3 * (k - 1))];
  double g2 = params_.values()[static_cast<size_t>(3 * (k - 1) + 1)];
  double g3 = params_.values()[static_cast<size_t>(3 * (k - 1) + 2)];
  if (variant2_) {
    const auto s = Softmax({g1, g2, g3});
    g1 = s[0];
    g2 = s[1];
    g3 = s[2];
  }
  // γ1 (I - L̃) + γ2 L̃ + γ3 I.
  *p = g1 + g3;
  *q = g2 - g1;
}

void AcmgnnFilter::FactorGrad(int k, double dp, double dq) {
  const double dg1 = dp - dq;
  const double dg2 = dq;
  const double dg3 = dp;
  auto& grads = params_.grads();
  if (variant2_) {
    const auto& raw = params_.values();
    const auto s = Softmax({raw[static_cast<size_t>(3 * (k - 1))],
                            raw[static_cast<size_t>(3 * (k - 1) + 1)],
                            raw[static_cast<size_t>(3 * (k - 1) + 2)]});
    const auto dz = SoftmaxGrad(s, {dg1, dg2, dg3});
    for (int i = 0; i < 3; ++i)
      grads[static_cast<size_t>(3 * (k - 1) + i)] += dz[static_cast<size_t>(i)];
  } else {
    grads[static_cast<size_t>(3 * (k - 1))] += dg1;
    grads[static_cast<size_t>(3 * (k - 1) + 1)] += dg2;
    grads[static_cast<size_t>(3 * (k - 1) + 2)] += dg3;
  }
}

std::vector<double> AcmgnnFilter::DefaultRaw(int hops, Rng* rng) const {
  std::vector<double> raw(static_cast<size_t>(3 * hops));
  for (int k = 0; k < hops; ++k) {
    raw[static_cast<size_t>(3 * k)] = (variant2_ ? 1.0 : 0.6) + Jit(rng, 0.05);
    raw[static_cast<size_t>(3 * k + 1)] =
        (variant2_ ? 0.0 : 0.2) + Jit(rng, 0.05);
    raw[static_cast<size_t>(3 * k + 2)] =
        (variant2_ ? 0.0 : 0.2) + Jit(rng, 0.05);
  }
  return raw;
}

// ----------------------------------------------------------------- AdaGNN
AdaGnnFilter::AdaGnnFilter(int hops, int64_t feature_dim, FilterHyperParams)
    : hops_(hops), feature_dim_(feature_dim) {
  SGNN_CHECK(hops >= 1, "AdaGNN requires at least one hop");
  SGNN_CHECK(feature_dim >= 1, "AdaGNN requires the feature dimension");
}

void AdaGnnFilter::ResetParameters(Rng* rng) {
  init_seed_ = rng != nullptr ? rng->Next() : 0;
  std::vector<double> raw(static_cast<size_t>(hops_ * feature_dim_), 0.5);
  if (init_seed_ != 0) {
    Rng jitter(init_seed_);
    for (auto& v : raw) v += jitter.Uniform(-0.05, 0.05);
  }
  params_.Reset(std::move(raw));
  ClearCache();
}

void AdaGnnFilter::EnsureParams(int64_t feature_dim) {
  if (feature_dim == feature_dim_ &&
      params_.size() == static_cast<size_t>(hops_ * feature_dim)) {
    return;
  }
  feature_dim_ = feature_dim;
  std::vector<double> raw(static_cast<size_t>(hops_ * feature_dim_), 0.5);
  if (init_seed_ != 0) {
    Rng jitter(init_seed_);
    for (auto& v : raw) v += jitter.Uniform(-0.05, 0.05);
  }
  params_.Reset(std::move(raw));
}

void AdaGnnFilter::Forward(const FilterContext& ctx, const Matrix& x,
                           Matrix* y, bool cache) {
  EnsureParams(x.cols());
  if (cache) {
    cached_h_.clear();
    cached_h_.reserve(static_cast<size_t>(hops_) + 1);
  }
  Matrix h = x;
  Matrix lh(x.rows(), x.cols(), ctx.device);
  Matrix gamma(1, feature_dim_, ctx.device);
  for (int k = 1; k <= hops_; ++k) {
    if (cache) cached_h_.push_back(h);
    propagate::Lap(ctx, h, &lh);
    for (int64_t f = 0; f < feature_dim_; ++f) {
      gamma.at(0, f) = static_cast<float>(
          -params_.values()[static_cast<size_t>((k - 1) * feature_dim_ + f)]);
    }
    // h <- h - L̃ h diag(γ_k).
    ops::AxpyColumnwise(gamma, lh, &h);
  }
  if (cache) cached_h_.push_back(h);
  *y = std::move(h);
}

void AdaGnnFilter::Backward(const FilterContext& ctx, const Matrix& grad_y,
                            Matrix* grad_x) {
  SGNN_CHECK(cached_h_.size() == static_cast<size_t>(hops_) + 1,
             "AdaGNN::Backward requires Forward(cache=true)");
  Matrix g = grad_y;
  Matrix lh(grad_y.rows(), grad_y.cols(), ctx.device);
  Matrix coldot(1, feature_dim_, ctx.device);
  Matrix gamma(1, feature_dim_, ctx.device);
  for (int k = hops_; k >= 1; --k) {
    const Matrix& h_prev = cached_h_[static_cast<size_t>(k - 1)];
    propagate::Lap(ctx, h_prev, &lh);
    // dγ_{k,f} = -<g[:,f], (L̃ h_{k-1})[:,f]>.
    ops::ColumnDot(g, lh, &coldot);
    for (int64_t f = 0; f < feature_dim_; ++f) {
      params_.grads()[static_cast<size_t>((k - 1) * feature_dim_ + f)] -=
          static_cast<double>(coldot.at(0, f));
    }
    // g <- g - L̃ g diag(γ_k) (L̃ symmetric, diag commutes per column).
    propagate::Lap(ctx, g, &lh);
    for (int64_t f = 0; f < feature_dim_; ++f) {
      gamma.at(0, f) = static_cast<float>(
          -params_.values()[static_cast<size_t>((k - 1) * feature_dim_ + f)]);
    }
    ops::AxpyColumnwise(gamma, lh, &g);
  }
  if (grad_x != nullptr) *grad_x = std::move(g);
}

void AdaGnnFilter::ClearCache() { cached_h_.clear(); }

double AdaGnnFilter::Response(double lambda) const {
  double r = 1.0;
  for (int k = 0; k < hops_; ++k) {
    double mean = 0.0;
    for (int64_t f = 0; f < feature_dim_; ++f) {
      mean += params_.values()[static_cast<size_t>(k * feature_dim_ + f)];
    }
    mean /= static_cast<double>(feature_dim_);
    r *= (1.0 - mean * lambda);
  }
  return r;
}

Status AdaGnnFilter::Precompute(const FilterContext&, const Matrix&,
                                std::vector<Matrix>*) {
  return Status::NotImplemented("adagnn: iterative architecture, full-batch only");
}

void AdaGnnFilter::CombineTerms(const std::vector<const Matrix*>&, Matrix*, bool) {
  SGNN_CHECK(false, "adagnn does not support mini-batch combine");
}

void AdaGnnFilter::BackwardCombine(const std::vector<const Matrix*>&, const Matrix&) {
  SGNN_CHECK(false, "adagnn does not support mini-batch combine");
}

}  // namespace sgnn::filters
