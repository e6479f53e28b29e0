// Serving side of the benchmark: checkpoint set-up, the open-loop query
// generator, and reply verification.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>

#include "common.h"
#include "core/registry.h"
#include "models/trainer.h"

namespace perfbench {

using sgnn::Matrix;
using sgnn::Status;

std::vector<int64_t> MakeHotSet(int64_t n, BenchRng* rng) {
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  const size_t hot = std::max<size_t>(1, ids.size() / 10);
  for (size_t i = 0; i < hot; ++i) {
    const size_t j = i + rng->Below(ids.size() - i);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(hot);
  return ids;
}

std::vector<Query> MakeSchedule(int64_t n, const std::vector<int64_t>& hot,
                                double rate_qps, double duration_s,
                                BenchRng* rng) {
  std::vector<Query> out;
  out.reserve(static_cast<size_t>(rate_qps * duration_s * 1.1) + 16);
  double t_ms = 0.0;
  const double mean_gap_ms = 1000.0 / rate_qps;
  while (true) {
    t_ms += -std::log(1.0 - rng->Uniform()) * mean_gap_ms;
    if (t_ms >= duration_s * 1000.0) break;
    Query q;
    q.due_ms = t_ms;
    q.node = rng->Uniform() < 0.8
                 ? hot[rng->Below(hot.size())]
                 : static_cast<int64_t>(rng->Below(static_cast<uint64_t>(n)));
    out.push_back(q);
  }
  return out;
}

Traffic MakeTraffic(int64_t n, uint64_t seed, double seconds) {
  BenchRng rng(seed);
  const std::vector<int64_t> hot = MakeHotSet(n, &rng);
  const double phase_s = std::max(0.5, 0.3 * seconds);
  Traffic t;
  t.warm = MakeSchedule(n, hot, 2000.0, 0.25, &rng);
  t.low = MakeSchedule(n, hot, 2000.0, phase_s, &rng);
  t.high = MakeSchedule(n, hot, 20000.0, phase_s, &rng);
  for (const Query& q : MakeSchedule(n, hot, 20000.0, 1.0, &rng)) {
    t.burst.push_back(q.node);
  }
  Fnv64 h;
  for (const auto* phase : {&t.warm, &t.low, &t.high}) {
    for (const Query& q : *phase) {
      const auto due_ns = static_cast<int64_t>(q.due_ms * 1e6);
      h.Bytes(&q.node, sizeof(q.node));
      h.Bytes(&due_ns, sizeof(due_ns));
    }
  }
  h.Vec(t.burst);
  t.fingerprint.hash = h.value();
  return t;
}

std::string TrafficKey(uint64_t seed, double seconds) {
  char key[96];
  std::snprintf(key, sizeof(key), "serve_open.traffic/%llu@%gs",
                static_cast<unsigned long long>(seed), seconds);
  return key;
}

sgnn::serve::EngineConfig ServeConfig() {
  // sgnn_serve's command-line defaults (the user path): EngineConfig's own
  // defaults leave the term cache disabled.
  sgnn::serve::EngineConfig cfg;
  cfg.max_batch = 32;
  cfg.max_wait_ms = 0.5;
  cfg.cache.accel_budget_bytes = 256 * 1024;
  cfg.cache.host_budget_bytes = 1024 * 1024;
  return cfg;
}

sgnn::Result<Servable> TrainCheckpoint(const Inputs& in,
                                       const std::string& filter_name,
                                       int epochs, uint64_t seed,
                                       const std::string& path) {
  const int hops = 10;
  const int64_t fi = in.g.features.cols();
  auto filter_or = sgnn::filters::CreateFilter(filter_name, hops, {}, fi);
  if (!filter_or.ok()) return filter_or.status();
  auto filter = filter_or.MoveValue();
  sgnn::models::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.hidden = 64;
  cfg.batch_size = 4096;
  cfg.phi0_layers = 0;
  cfg.phi1_layers = 2;
  cfg.seed = seed;
  cfg.export_model = true;
  sgnn::models::TrainResult tr = sgnn::models::TrainMiniBatch(
      in.g, in.splits, in.spec.metric, filter.get(), cfg);
  if (!tr.status.ok()) return tr.status;
  if (tr.exported == nullptr) return Status::Internal("no exported model");
  sgnn::serve::CheckpointMeta meta{in.spec.name, in.g.n, in.g.num_classes,
                                   cfg.rho, cfg.seed};
  auto ckpt_or = sgnn::serve::BuildCheckpoint(filter_name, hops, {}, fi,
                                              *tr.exported, meta);
  if (!ckpt_or.ok()) return ckpt_or.status();
  if (Status s = sgnn::serve::SaveCheckpoint(ckpt_or.value(), path); !s.ok()) {
    return s;
  }
  Servable out;
  out.train_acc = tr.test_metric * 100.0;
  const int64_t t0 = NowNs();
  auto loaded = sgnn::serve::LoadCheckpoint(path);
  out.load_ms = MsSince(t0);
  std::remove(path.c_str());
  if (!loaded.ok()) return loaded.status();
  out.ckpt = loaded.MoveValue();
  return out;
}

namespace {

/// Spins until `due_ns`. Sleeping is not used: on a virtual machine a
/// sleeping thread's wake-up was measured several milliseconds late at p99,
/// while a spinning one stays on time.
void WaitUntil(int64_t due_ns) {
  while (NowNs() < due_ns) {
  }
}

}  // namespace

const std::vector<float>& ReferenceRow(
    sgnn::serve::Engine* engine, int64_t node,
    std::map<int64_t, std::vector<float>>* reference) {
  auto it = reference->find(node);
  if (it == reference->end()) {
    Matrix single;
    std::vector<float> row;
    if (engine->ServeBatch({node}, &single).ok()) {
      row.assign(single.data(), single.data() + single.size());
    }
    it = reference->emplace(node, std::move(row)).first;
  }
  return it->second;
}

Phase RunPhase(sgnn::serve::Engine* engine, const std::vector<Query>& schedule,
               std::map<int64_t, std::vector<float>>* reference,
               const std::string& label) {
  Scope phase_span("serve.phase." + label);
  Phase ph;
  const size_t n = schedule.size();
  ph.offered = static_cast<int64_t>(n);
  const sgnn::serve::CacheStats cache0 = engine->GetCacheStats();
  const uint64_t batches0 = engine->batches_dispatched();

  std::vector<std::future<sgnn::serve::QueryResult>> futures;
  futures.reserve(n);
  std::vector<int64_t> submit_ns(n);
  const int64_t t0 = NowNs() + 1'000'000;
  for (size_t i = 0; i < n; ++i) {
    WaitUntil(t0 + static_cast<int64_t>(schedule[i].due_ms * 1e6));
    submit_ns[i] = NowNs();
    futures.push_back(engine->Submit(schedule[i].node));
  }

  std::vector<sgnn::serve::QueryResult> results(n);
  for (size_t i = 0; i < n; ++i) results[i] = futures[i].get();
  const uint64_t served_queries = n;
  const uint64_t batches = engine->batches_dispatched() - batches0;
  const sgnn::serve::CacheStats cache1 = engine->GetCacheStats();
  ph.lookups = cache1.lookups() - cache0.lookups();
  ph.hits = (cache1.accel_hits + cache1.host_hits) -
            (cache0.accel_hits + cache0.host_hits);
  ph.mean_batch = batches == 0 ? 0.0
                               : static_cast<double>(served_queries) /
                                     static_cast<double>(batches);

  Tracer& tracer = Tracer::Get();
  std::vector<double> in_order;  // latency by due order, for backlog check
  for (size_t i = 0; i < n; ++i) {
    const int64_t due_ns = t0 + static_cast<int64_t>(schedule[i].due_ms * 1e6);
    ph.late_ms.push_back(static_cast<double>(submit_ns[i] - due_ns) / 1e6);
    const sgnn::serve::QueryResult& r = results[i];
    if (!r.status.ok()) {
      ++ph.failed;
      continue;
    }
    if (!SameBits(ReferenceRow(engine, schedule[i].node, reference),
                  r.logits)) {
      ++ph.failed;
      continue;
    }
    const int64_t done_ns =
        submit_ns[i] + static_cast<int64_t>(r.latency_ms * 1e6);
    const double lat = static_cast<double>(done_ns - due_ns) / 1e6;
    ph.latency_ms.push_back(lat);
    in_order.push_back(lat);
    tracer.Add("serve.query", due_ns, done_ns, static_cast<int64_t>(i),
               phase_span.index());
  }
  // Growing backlog: the last fifth of the phase waits far longer than the
  // first fifth.
  const size_t fifth = in_order.size() / 5;
  if (fifth >= 10) {
    const std::vector<double> head(in_order.begin(),
                                   in_order.begin() + static_cast<long>(fifth));
    const std::vector<double> tail(in_order.end() - static_cast<long>(fifth),
                                   in_order.end());
    ph.backlog = Median(tail) > 2.0 * Median(head) + 1.0;
  }
  return ph;
}

sgnn::Result<double> ServedAccuracy(sgnn::serve::Engine* engine,
                                    const Inputs& in) {
  const std::vector<int32_t>& rows = in.splits.test;
  int64_t correct = 0;
  for (size_t start = 0; start < rows.size(); start += 4096) {
    const size_t end = std::min(rows.size(), start + 4096);
    std::vector<int64_t> nodes(rows.begin() + static_cast<long>(start),
                               rows.begin() + static_cast<long>(end));
    Matrix logits;
    if (Status s = engine->ServeBatch(nodes, &logits); !s.ok()) return s;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const float* row = logits.row(static_cast<int64_t>(i));
      const auto best = std::max_element(row, row + logits.cols()) - row;
      if (best == in.g.labels[static_cast<size_t>(nodes[i])]) ++correct;
    }
  }
  return rows.empty() ? 0.0
                      : 100.0 * static_cast<double>(correct) /
                            static_cast<double>(rows.size());
}

}  // namespace perfbench
