// Golden-bits test: pins the exact float output of every filter in the
// registry to an FNV-1a hash recorded once and never regenerated.
//
// For each of the 27 filters at K=10 on a fixed DC-SBM graph (n=1500,
// average degree 6, F=16, seed 5) the hash covers, in order:
// Forward(cache=true), the θ-gradients and grad_x from Backward,
// Forward(cache=false), and the Precompute terms (MB-capable filters only).
// Every filter must reproduce its hash on the host and the simulated
// accelerator, at 1 and 4 kernel threads. A refactor of the propagation
// path that changes a single bit of any of those outputs fails here; the
// dense-eigendecomposition oracle (conformance_test) separately judges that
// the recorded bits are the right polynomial.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/registry.h"
#include "graph/generator.h"
#include "sparse/adjacency.h"
#include "tensor/device.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace sgnn {
namespace {

constexpr int kHops = 10;
constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(const void* data, size_t bytes, uint64_t* h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashMatrix(const Matrix& m, uint64_t* h) {
  const int64_t shape[2] = {m.rows(), m.cols()};
  HashBytes(shape, sizeof(shape), h);
  if (m.size() > 0) HashBytes(m.data(), m.bytes(), h);
}

struct Fixture {
  graph::Graph g;
  sparse::CsrMatrix prop;
};

const Fixture& GoldenFixture() {
  static const Fixture* fixture = [] {
    graph::GeneratorConfig gc;
    gc.n = 1500;
    gc.avg_degree = 6.0;
    gc.feature_dim = 16;
    gc.seed = 5;
    auto* f = new Fixture;
    f->g = graph::GenerateSbm(gc);
    f->prop = sparse::NormalizeAdjacency(f->g.adj, 0.5);
    return f;
  }();
  return *fixture;
}

/// Runs the full filter surface once on `device` and folds every output
/// into one hash.
uint64_t HashFilterOutputs(const std::string& name, Device device) {
  const Fixture& fx = GoldenFixture();
  const int64_t f = fx.g.features.cols();
  auto filter_or = filters::CreateFilter(name, kHops, {}, f);
  SGNN_CHECK(filter_or.ok(), "golden fixture filter must construct");
  auto filter = filter_or.MoveValue();
  Rng rng(17);
  filter->ResetParameters(&rng);

  filters::FilterContext ctx;
  ctx.prop = &fx.prop;
  ctx.device = device;
  const Matrix x = fx.g.features.CloneTo(device);
  Matrix grad_y(fx.g.n, f, device);
  Rng grad_rng(29);
  grad_y.FillNormal(&grad_rng);

  uint64_t h = kFnvOffset;
  Matrix y;
  filter->Forward(ctx, x, &y, /*cache=*/true);
  HashMatrix(y, &h);

  filter->params().ZeroGrad();
  Matrix grad_x;
  filter->Backward(ctx, grad_y, &grad_x);
  const std::vector<double>& grads = filter->params().grads();
  HashBytes(grads.data(), grads.size() * sizeof(double), &h);
  HashMatrix(grad_x, &h);
  filter->ClearCache();

  Matrix y_nocache;
  filter->Forward(ctx, x, &y_nocache, /*cache=*/false);
  HashMatrix(y_nocache, &h);

  if (filter->SupportsMiniBatch()) {
    std::vector<Matrix> terms;
    const Status status = filter->Precompute(ctx, x, &terms);
    SGNN_CHECK(status.ok(), "golden fixture precompute must succeed");
    const uint64_t count = terms.size();
    HashBytes(&count, sizeof(count), &h);
    for (const Matrix& t : terms) HashMatrix(t, &h);
  }
  return h;
}

// Recorded before the eager basis streams were removed; identical on host
// and accelerator and at every thread count.
const std::map<std::string, uint64_t>& GoldenHashes() {
  static const std::map<std::string, uint64_t> hashes = {
      {"acmgnn1", 0x575b5fafe95463a5ull},
      {"acmgnn2", 0x0361ca5a5a8077d6ull},
      {"adagnn", 0x3518ead34cce0a9eull},
      {"bernstein", 0xfc225fdfa9d05b74ull},
      {"chebinterp", 0xae0e266bc62c5782ull},
      {"chebyshev", 0x5a3f8e32130a3979ull},
      {"clenshaw", 0xb1f665b89b1cafbbull},
      {"fagnn", 0xadc8f083d430bda8ull},
      {"favard", 0x7c13a4ac96ed0c0dull},
      {"fbgnn1", 0xe65f87b6ce1867fdull},
      {"fbgnn2", 0xe7c6c0ef2351b91full},
      {"figure", 0x5bbe4822fb80b154ull},
      {"g2cn", 0x3495d1e2b18105c8ull},
      {"gaussian", 0x667a7f2d1f3b9b90ull},
      {"gnn_lf_hf", 0x7e9b4da95188fc73ull},
      {"hk", 0x7c2c00c6a010dd1eull},
      {"horner", 0xfd068d7703062104ull},
      {"identity", 0x64f20dcf46520f93ull},
      {"impulse", 0xcbc7565afd638e68ull},
      {"jacobi", 0x5d03c057af90e79aull},
      {"legendre", 0x35333780a5116989ull},
      {"linear", 0x02621fba4df7d680ull},
      {"monomial", 0x62c0ca232b5fa0b4ull},
      {"optbasis", 0x414eeb16eee5bcd9ull},
      {"ppr", 0x93a87809c8ded9d2ull},
      {"var_linear", 0xf03b2b17478a348full},
      {"var_monomial", 0xfb03858f619c571cull},
  };
  return hashes;
}

TEST(FilterGolden, AllFiltersReproduceRecordedBits) {
  const std::vector<std::string> names = filters::AllFilterNames();
  ASSERT_EQ(names.size(), 27u);
  for (const int threads : {1, 4}) {
    parallel::SetNumThreads(threads);
    for (const Device device : {Device::kHost, Device::kAccel}) {
      for (const std::string& name : names) {
        const uint64_t got = HashFilterOutputs(name, device);
        const auto it = GoldenHashes().find(name);
        char line[96];
        std::snprintf(line, sizeof(line), "{\"%s\", 0x%016llxull},",
                      name.c_str(), static_cast<unsigned long long>(got));
        if (it == GoldenHashes().end()) {
          ADD_FAILURE() << "no golden hash: " << line;
          continue;
        }
        EXPECT_EQ(got, it->second)
            << line << " device=" << DeviceName(device)
            << " threads=" << threads;
      }
    }
  }
  parallel::SetNumThreads(0);
  DeviceTracker::Global().ResetAll();
}

}  // namespace
}  // namespace sgnn
