#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

InputPrint GraphFingerprint(const sgnn::graph::Graph& g,
                            const sgnn::graph::Splits& splits) {
  InputPrint p;
  Fnv64 h;
  h.Vec(g.adj.indptr());
  h.Vec(g.adj.indices());
  h.Vec(g.adj.values());  // all 1: the generator writes them, no kernel does
  const int64_t shape[2] = {g.features.rows(), g.features.cols()};
  h.Bytes(shape, sizeof(shape));
  h.Vec(g.labels);
  h.Vec(splits.train);
  h.Vec(splits.val);
  h.Vec(splits.test);
  p.hash = h.value();

  // Fixed projection weights, independent of the workload seed.
  BenchRng rng(0x5EEDF00DULL);
  std::vector<double> col_weight(static_cast<size_t>(shape[1]));
  for (double& c : col_weight) c = 2.0 * rng.Uniform() - 1.0;
  p.has_features = true;
  FeatureSums& s = p.features;
  for (int64_t i = 0; i < shape[0]; ++i) {
    const float* row = g.features.row(i);
    const double row_weight = 2.0 * rng.Uniform() - 1.0;
    double row_sum = 0.0;
    for (int64_t j = 0; j < shape[1]; ++j) {
      const double x = row[j];
      s.l1 += std::fabs(x);
      s.l2sq += x * x;
      s.col_proj += col_weight[static_cast<size_t>(j)] * x;
      row_sum += x;
    }
    s.row_proj += row_weight * row_sum;
  }
  return p;
}

std::string InputPrint::ToString() const {
  std::string out = Hex(hash);
  if (has_features) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " %.9g %.9g %.9g %.9g", features.l1,
                  features.l2sq, features.row_proj, features.col_proj);
    out += buf;
  }
  return out;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Result::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  errors.push_back(what);
}

// ---------------------------------------------------------------- tracer

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int32_t Tracer::Begin(const std::string& name, int64_t group) {
  Span s;
  s.name = name;
  s.parent = current();
  if (group >= 0) {
    s.group = group;
  } else if (s.parent >= 0) {
    s.group = spans_[static_cast<size_t>(s.parent)].group;
  }
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order; tolerate an out-of-order close by unwinding.
  while (!stack_.empty()) {
    const int32_t top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                 int64_t group, int32_t parent) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.group = group;
  spans_.push_back(std::move(s));
}

double Tracer::DurMs(int32_t index) const {
  const Span& s = spans_[static_cast<size_t>(index)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

double Tracer::TotalMs(const std::string& name, int32_t ancestor) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    bool under = false;
    for (int32_t p = spans_[i].parent; !under && p >= 0;
         p = spans_[static_cast<size_t>(p)].parent) {
      under = p == ancestor;
    }
    if (under) total += DurMs(static_cast<int32_t>(i));
  }
  return total;
}

double Tracer::ChildMs(int32_t index) const {
  double total = 0.0;
  for (size_t i = static_cast<size_t>(index) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == index) total += DurMs(static_cast<int32_t>(i));
  }
  return total;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << "{\"name\":\"" << s.name << "\"," << buf << "\"args\":{\"span\":"
        << i << ",\"parent\":" << s.parent << ",\"id\":" << s.group << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- workloads

sgnn::models::TrainConfig RunConfig(const WorkloadSpec& w, uint64_t seed) {
  sgnn::models::TrainConfig cfg;
  cfg.epochs = w.epochs;
  cfg.hidden = 64;
  cfg.batch_size = 4096;
  cfg.rho = 0.5;
  cfg.seed = seed;
  return cfg;
}

Inputs MakeInputs(const std::string& dataset, uint64_t seed) {
  Inputs in;
  in.spec = sgnn::graph::FindDataset(dataset).value();
  in.g = sgnn::graph::MakeDataset(in.spec, seed);
  in.splits = sgnn::graph::RandomSplits(in.g.n, seed);
  return in;
}

void CheckFingerprint(const Options& opt, const std::string& key,
                      const InputPrint& print, Result* result) {
  std::ifstream in(opt.fingerprints);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string k, v;
    if (!(fields >> k >> v) || k != key) continue;
    std::string why;
    if (v != Hex(print.hash)) why = "exact hash differs";
    FeatureSums rec;
    if (print.has_features && why.empty()) {
      if (!(fields >> rec.l1 >> rec.l2sq >> rec.row_proj >> rec.col_proj)) {
        why = "record has no feature sums";
      } else {
        const FeatureSums& got = print.features;
        const double tol = kFeatureTolerance;
        if (std::fabs(got.l1 - rec.l1) > tol * rec.l1 ||
            std::fabs(got.l2sq - rec.l2sq) > tol * rec.l2sq ||
            std::fabs(got.row_proj - rec.row_proj) > tol * rec.l1 ||
            std::fabs(got.col_proj - rec.col_proj) > tol * rec.l1) {
          why = "feature sums differ by more than the tolerance";
        }
      }
    }
    if (!why.empty()) {
      result->Fail("input fingerprint " + key + " is " + print.ToString() +
                   ", recorded \"" + line + "\" (" + why +
                   "): the generated inputs changed");
    } else {
      std::printf("fingerprint %s %s (matches record)\n", key.c_str(),
                  print.ToString().c_str());
    }
    return;
  }
  std::printf("fingerprint %s %s (no record for this seed)\n", key.c_str(),
              print.ToString().c_str());
}

}  // namespace perfbench
