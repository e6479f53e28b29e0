#include "core/poly_base.h"

#include "core/lazy.h"
#include "tensor/ops.h"

namespace sgnn::filters {

const char* FilterTypeName(FilterType type) {
  switch (type) {
    case FilterType::kFixed: return "fixed";
    case FilterType::kVariable: return "variable";
    case FilterType::kBank: return "bank";
  }
  return "unknown";
}

void FilterContext::Propagate(const Matrix& x, Matrix* y) const {
  if (op != nullptr) {
    op->Apply(x, y);
    return;
  }
  prop->SpMM(x, y);
}

namespace propagate {

void Adj(const FilterContext& ctx, const Matrix& x, Matrix* y) {
  ctx.Propagate(x, y);
}

void Lap(const FilterContext& ctx, const Matrix& x, Matrix* y) {
  // One fused hop, y = -1·(Ã x) + 1·x: per element the Scale(-1) then
  // Axpy(1, x) that follow the SpMM, applied before y is stored.
  ops::AffineEpilogue ep;
  ep.ca = -1.0f;
  ep.ci = 1.0f;
  ep.in1 = &x;
  if (ctx.op != nullptr) {
    ctx.op->ApplyAffine(x, ep, y);
    return;
  }
  ctx.prop->SpMM(x, ep, y);
}

}  // namespace propagate

opgraph::ValueId SpectralFilter::RecordForward(opgraph::Graph* /*graph*/,
                                               opgraph::ValueId /*x*/,
                                               const opgraph::SpmmOperator*) {
  SGNN_CHECK(false,
             "RecordForward called on a filter without op-graph recording");
  return opgraph::kNoValue;
}

Status SpectralFilter::RecordPrecompute(opgraph::Graph* /*graph*/,
                                        opgraph::ValueId /*x*/,
                                        const opgraph::SpmmOperator* /*adj*/,
                                        std::vector<opgraph::ValueId>*) {
  return Status::NotImplemented("filter has no op-graph recording");
}

Status RunOnGraph(const FilterContext& ctx, const Matrix& x,
                  const GraphRecorder& record, opgraph::PipelineStats* stats) {
  SGNN_CHECK(ctx.op != nullptr || ctx.prop != nullptr,
             "op-graph execution requires a propagation operator");
  // A propagation override (e.g. shard::ShardedSpmmOperator) already speaks
  // the op-graph's abstract operator interface; otherwise adapt the CSR.
  const CsrSpmmOperator csr_adj(ctx.prop);
  const opgraph::SpmmOperator* adj = ctx.op != nullptr ? ctx.op : &csr_adj;
  opgraph::Graph graph(ctx.device);
  SGNN_RETURN_IF_ERROR(record(&graph, graph.Input(&x), adj));
  return opgraph::RunPipeline(&graph, stats);
}

namespace {

Status CheckRecordable(const SpectralFilter& filter) {
  if (filter.SupportsLazy()) return Status::OK();
  return Status::NotImplemented("filter '" + filter.name() +
                                "' has no op-graph recording");
}

}  // namespace

Status LazyForward(SpectralFilter* filter, const FilterContext& ctx,
                   const Matrix& x, Matrix* y,
                   opgraph::PipelineStats* stats) {
  SGNN_RETURN_IF_ERROR(CheckRecordable(*filter));
  return RunOnGraph(
      ctx, x,
      [&](opgraph::Graph* graph, opgraph::ValueId in,
          const opgraph::SpmmOperator* adj) {
        graph->MarkOutput(filter->RecordForward(graph, in, adj), y);
        return Status::OK();
      },
      stats);
}

Status LazyPrecompute(SpectralFilter* filter, const FilterContext& ctx,
                      const Matrix& x, std::vector<Matrix>* terms,
                      opgraph::PipelineStats* stats) {
  SGNN_RETURN_IF_ERROR(CheckRecordable(*filter));
  return RunOnGraph(
      ctx, x,
      [&](opgraph::Graph* graph, opgraph::ValueId in,
          const opgraph::SpmmOperator* adj) {
        std::vector<opgraph::ValueId> ids;
        SGNN_RETURN_IF_ERROR(filter->RecordPrecompute(graph, in, adj, &ids));
        graph->MarkOutputs(ids, terms);
        return Status::OK();
      },
      stats);
}

PolynomialBasisFilter::PolynomialBasisFilter(std::string name, FilterType type,
                                             int hops, FilterHyperParams hp)
    : hp_(hp), name_(std::move(name)), type_(type), hops_(hops) {
  SGNN_CHECK(hops >= 0, "filter hop count must be non-negative");
}

void PolynomialBasisFilter::ResetParameters(Rng* rng) {
  params_.Reset(DefaultTheta(hops_, rng));
  ClearCache();
}

std::vector<double> PolynomialBasisFilter::FixedTheta(int hops) const {
  (void)hops;
  SGNN_CHECK(false, "FixedTheta must be overridden by fixed filters");
  return {};
}

std::vector<double> PolynomialBasisFilter::EffectiveTheta(int hops) const {
  if (type_ == FilterType::kFixed) return FixedTheta(hops);
  return params_.values();
}

void PolynomialBasisFilter::AccumulateRawGrad(
    const std::vector<double>& eff_grad) {
  auto& grads = params_.grads();
  SGNN_CHECK(eff_grad.size() <= grads.size(),
             "effective-theta gradient larger than parameter vector");
  for (size_t i = 0; i < eff_grad.size(); ++i) grads[i] += eff_grad[i];
}

std::vector<double> PolynomialBasisFilter::CurrentTheta() const {
  std::vector<double> theta = EffectiveTheta(hops_);
  SGNN_CHECK(static_cast<int>(theta.size()) == hops_ + 1,
             "effective theta must have K+1 entries");
  return theta;
}

PolynomialBasisFilter::Recurrence PolynomialBasisFilter::RecurrenceAt(
    int k) const {
  (void)k;
  // Default basis: T_k = Ã T_{k-1}, i.e. T_k = (I - L̃)^k.
  return Recurrence{1.0, 0.0, 0.0};
}

void PolynomialBasisFilter::RecordBasis(opgraph::Graph* graph,
                                        opgraph::ValueId x,
                                        const opgraph::SpmmOperator* adj,
                                        const BasisEmitter& emit) const {
  // Generic three-term recurrence. The fusion pass collapses each hop's
  // Spmm→Scale→Axpy chain into one kFusedSpmmAffine node, and the planner
  // keeps at most prev/cur/next live unless the terms are pinned.
  opgraph::ValueId prev = opgraph::kNoValue;
  opgraph::ValueId cur = x;
  emit(0, cur);
  for (int k = 1; k <= hops(); ++k) {
    const Recurrence r = RecurrenceAt(k);
    opgraph::ValueId v =
        graph->Scale(static_cast<float>(r.ca), graph->Spmm(adj, cur));
    if (r.ci != 0.0) v = graph->Axpy(static_cast<float>(r.ci), cur, v);
    if (r.cp != 0.0 && prev != opgraph::kNoValue) {
      v = graph->Axpy(static_cast<float>(r.cp), prev, v);
    }
    emit(k, v);
    prev = cur;
    cur = v;
  }
}

opgraph::ValueId PolynomialBasisFilter::RecordWeightedSum(
    opgraph::Graph* graph, opgraph::ValueId x,
    const opgraph::SpmmOperator* adj,
    std::vector<opgraph::ValueId>* terms) const {
  const std::vector<double> theta = CurrentTheta();
  // Zero + Axpy chain skipping θ_k == 0; the planner pins the whole chain
  // into the caller's output matrix.
  opgraph::ValueId acc = graph->Zero(graph->rows(x), graph->cols(x));
  RecordBasis(graph, x, adj, [&](int k, opgraph::ValueId term) {
    const double w = theta[static_cast<size_t>(k)];
    if (w != 0.0) acc = graph->Axpy(static_cast<float>(w), term, acc);
    if (terms != nullptr) terms->push_back(term);
  });
  return acc;
}

opgraph::ValueId PolynomialBasisFilter::RecordForward(
    opgraph::Graph* graph, opgraph::ValueId x,
    const opgraph::SpmmOperator* adj) {
  return RecordWeightedSum(graph, x, adj, nullptr);
}

Status PolynomialBasisFilter::RecordPrecompute(
    opgraph::Graph* graph, opgraph::ValueId x,
    const opgraph::SpmmOperator* adj,
    std::vector<opgraph::ValueId>* terms) {
  if (type_ == FilterType::kFixed) {
    // Fixed filters fold θ during precompute: a single combined value.
    terms->push_back(RecordForward(graph, x, adj));
    return Status::OK();
  }
  terms->reserve(terms->size() + static_cast<size_t>(hops()) + 1);
  RecordBasis(graph, x, adj, [&](int /*k*/, opgraph::ValueId term) {
    terms->push_back(term);
  });
  return Status::OK();
}

std::vector<double> PolynomialBasisFilter::ScalarBasis(double lambda,
                                                       int hops) const {
  const double a = 1.0 - lambda;  // scalar analogue of Ã
  std::vector<double> tau(static_cast<size_t>(hops) + 1);
  tau[0] = 1.0;
  double prev = 0.0, cur = 1.0;
  for (int k = 1; k <= hops; ++k) {
    const Recurrence r = RecurrenceAt(k);
    const double next = (r.ca * a + r.ci) * cur + r.cp * prev;
    tau[static_cast<size_t>(k)] = next;
    prev = cur;
    cur = next;
  }
  return tau;
}

void PolynomialBasisFilter::Forward(const FilterContext& ctx, const Matrix& x,
                                    Matrix* y, bool cache) {
  // Variable filters pin every basis term straight into cached_terms_ for
  // the θ-gradient; fixed filters pin only y.
  const bool keep_terms = cache && type_ != FilterType::kFixed;
  const Status status = RunOnGraph(
      ctx, x,
      [&](opgraph::Graph* graph, opgraph::ValueId in,
          const opgraph::SpmmOperator* adj) {
        std::vector<opgraph::ValueId> terms;
        graph->MarkOutput(
            RecordWeightedSum(graph, in, adj, keep_terms ? &terms : nullptr),
            y);
        graph->MarkOutputs(terms, &cached_terms_);
        return Status::OK();
      });
  // The only failure RunOnGraph can report here is a newly latched simulated
  // OOM, after every output is computed. Forward returns no status: the
  // DeviceTracker latch carries the signal to the trainers' RunGuard, as for
  // any over-capacity allocation.
  (void)status;
  has_cache_ = keep_terms;
}

void PolynomialBasisFilter::Backward(const FilterContext& ctx,
                                     const Matrix& grad_y, Matrix* grad_x) {
  if (type_ != FilterType::kFixed) {
    SGNN_CHECK(has_cache_, "Backward requires Forward(cache=true)");
    std::vector<const Matrix*> terms;
    terms.reserve(cached_terms_.size());
    for (const Matrix& t : cached_terms_) terms.push_back(&t);
    std::vector<double> eff_grad;
    ops::Dots(grad_y, terms, &eff_grad);
    AccumulateRawGrad(eff_grad);
  }
  if (grad_x != nullptr) {
    // Bases are polynomials of the symmetric L̃ => g(L̃)ᵀ = g(L̃); replay the
    // recorded forward on the upstream gradient.
    const Status status = LazyForward(this, ctx, grad_y, grad_x);
    (void)status;  // a latched OOM stays on the tracker, as in Forward
  }
}

void PolynomialBasisFilter::ClearCache() {
  cached_terms_.clear();
  has_cache_ = false;
}

double PolynomialBasisFilter::Response(double lambda) const {
  const std::vector<double> theta = EffectiveTheta(hops_);
  const std::vector<double> tau = ScalarBasis(lambda, hops_);
  double acc = 0.0;
  for (size_t k = 0; k < theta.size() && k < tau.size(); ++k) {
    acc += theta[k] * tau[k];
  }
  return acc;
}

Status PolynomialBasisFilter::Precompute(const FilterContext& ctx,
                                         const Matrix& x,
                                         std::vector<Matrix>* terms) {
  const Status status = LazyPrecompute(this, ctx, x, terms);
  // A latched OOM stays on the tracker, as in Forward.
  return status.code() == StatusCode::kOutOfMemory ? Status::OK() : status;
}

void PolynomialBasisFilter::CombineTerms(const std::vector<const Matrix*>& batch_terms,
                                         Matrix* y, bool cache) {
  SGNN_CHECK(!batch_terms.empty(), "CombineTerms: no terms");
  if (type_ == FilterType::kFixed) {
    *y = *batch_terms[0];
    return;
  }
  const std::vector<double> theta = CurrentTheta();
  SGNN_CHECK(batch_terms.size() == theta.size(),
             "CombineTerms: term/theta count mismatch");
  *y = Matrix(batch_terms[0]->rows(), batch_terms[0]->cols(),
              batch_terms[0]->device());
  for (size_t k = 0; k < batch_terms.size(); ++k) {
    if (theta[k] != 0.0)
      ops::Axpy(static_cast<float>(theta[k]), *batch_terms[k], y);
  }
  if (cache) combine_theta_ = theta;
}

void PolynomialBasisFilter::BackwardCombine(
    const std::vector<const Matrix*>& batch_terms, const Matrix& grad_y) {
  if (type_ == FilterType::kFixed) return;
  std::vector<double> eff_grad;
  ops::Dots(grad_y, batch_terms, &eff_grad);
  AccumulateRawGrad(eff_grad);
}

}  // namespace sgnn::filters
