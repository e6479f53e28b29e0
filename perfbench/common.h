// Shared pieces of the repository benchmark (sgnn_perfbench): clock,
// statistics, the benchmark's own RNG, input fingerprints, the result
// sink, and the in-memory span tracer used by the traced (--trace 1) run.
//
// The benchmark drives the library only through its public entry points;
// every span is recorded here, around calls into a layer, never inside the
// library.

#ifndef SGNN_PERFBENCH_COMMON_H_
#define SGNN_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "core/filter.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"

namespace perfbench {

// ---------------------------------------------------------------- clock

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// CPU time of the whole process (all threads), in ns. On a virtual machine
/// it excludes time the host steals from the vCPUs, which wall-clock time
/// does not.
inline int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Wall and process-CPU time since construction.
class Timer {
 public:
  Timer() : wall0_(NowNs()), cpu0_(CpuNs()) {}
  double wall_ms() const { return MsSince(wall0_); }
  double cpu_ms() const { return static_cast<double>(CpuNs() - cpu0_) / 1e6; }

 private:
  int64_t wall0_;
  int64_t cpu0_;
};

// ----------------------------------------------------------- statistics

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
inline double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Highest percentile of `n` samples that still has at least ten samples
/// beyond it (0 when n < 11).
inline double TopSupportedPercentile(size_t n) {
  return n < 11 ? 0.0 : 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

// ------------------------------------------------------------------ rng

/// The benchmark's own generator (SplitMix64) for query streams and arrival
/// times, so a change to the library's RNG cannot change the traffic.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed ^ 0xA0761D6478BD642FULL) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------- fingerprint

/// FNV-1a over raw bytes; used to pin a workload's generated inputs.
class Fnv64 {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001B3ULL;
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    const uint64_t n = v.size();
    Bytes(&n, sizeof(n));
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Float summary of a feature matrix. The features are computed by library
/// kernels (RowL2Normalize, NormalizeAdjacency, SpMM, Axpy), whose rounding
/// may legitimately change, so they are compared within kFeatureTolerance
/// rather than bit for bit.
struct FeatureSums {
  double l1 = 0.0;        ///< sum of |x|
  double l2sq = 0.0;      ///< sum of x^2
  double row_proj = 0.0;  ///< sum of r_i * (sum of row i), r_i in [-1, 1)
  double col_proj = 0.0;  ///< sum of c_j * (sum of column j), c_j in [-1, 1)
};

/// Relative tolerance of the feature sums (relative to l1 for the
/// projections, whose value may be near zero).
inline constexpr double kFeatureTolerance = 1e-4;

/// Fingerprint of generated inputs: an exact hash of everything no float
/// kernel computes, plus (graphs only) the feature sums.
struct InputPrint {
  uint64_t hash = 0;
  bool has_features = false;
  FeatureSums features;

  /// "<hash>[ <l1> <l2sq> <row_proj> <col_proj>]", as in the table.
  std::string ToString() const;
};

/// Fingerprint of a generated graph: CSR arrays, feature shape, labels and
/// splits hashed exactly; features summed.
InputPrint GraphFingerprint(const sgnn::graph::Graph& g,
                            const sgnn::graph::Splits& splits);

std::string Hex(uint64_t v);

// --------------------------------------------------------------- result

/// Named metrics in insertion order plus the run's check outcome.
struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks

  void Set(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& what);
  bool correct() const { return errors.empty(); }
};

// --------------------------------------------------------------- tracer

/// One closed span. `group` ties the spans of one epoch or one query.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index into the span list, -1 for a root
  int64_t group = -1;
};

/// Single-threaded span recorder, held in memory and written as Chrome
/// trace-event JSON at the end of the traced run. Disabled tracers record
/// nothing, so the untraced runs pay one branch per span.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span as a child of the innermost open span; returns its index.
  int32_t Begin(const std::string& name, int64_t group = -1);
  void End(int32_t index);
  /// Records an already-timed span (e.g. a query's due → fulfilment).
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns,
           int64_t group, int32_t parent = -1);

  const std::vector<Span>& spans() const { return spans_; }
  int32_t current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Sum of durations (ms) of spans named `name` below span `ancestor`.
  double TotalMs(const std::string& name, int32_t ancestor) const;
  /// Summed duration (ms) of the direct children of span `index`.
  double ChildMs(int32_t index) const;
  double DurMs(int32_t index) const;

  [[nodiscard]] bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; a no-op when tracing is off.
class Scope {
 public:
  explicit Scope(const std::string& name, int64_t group = -1)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, group)
                                       : -1) {}
  ~Scope() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t index() const { return index_; }

 private:
  int32_t index_;
};

// ------------------------------------------------------------ workloads

/// Inputs shared by every workload: the generated graph and its split.
struct Inputs {
  sgnn::graph::DatasetSpec spec;
  sgnn::graph::Graph g;
  sgnn::graph::Splits splits;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;          ///< nproc: kernel threads (training and probes)
  std::string out_dir{"."};  ///< checkpoints and trace files
  std::string fingerprints; ///< recorded fingerprint table
};

/// Per-workload constants (see the table in main.cc).
struct WorkloadSpec {
  std::string name;
  std::string dataset;
  std::string scheme;  ///< "fb" or "mb" (serve_open: the checkpoint's)
  std::vector<std::string> filters;
  /// Epochs of a training call (serve_open: of the checkpoint), at most
  /// TrainConfig::eval_every so that the call validates exactly once.
  int epochs = 1;
  /// Training repetitions measured even when they outlast --seconds.
  int min_reps = 3;
  double acc_floor = 0.0;  ///< minimum test accuracy, percent (0: none)
  bool serving = false;
};

/// Training hyperparameters as `sgnn_run` sets them for `scheme`.
sgnn::models::TrainConfig RunConfig(const WorkloadSpec& w, uint64_t seed);

/// Generates a dataset at its registry size, with the seed's split.
Inputs MakeInputs(const std::string& dataset, uint64_t seed);
/// Checks `print` against the recorded fingerprint `key`, failing `result`
/// on a mismatch; keys without a record are printed and pass.
void CheckFingerprint(const Options& opt, const std::string& key,
                      const InputPrint& print, Result* result);

// ------------------------------------------------------------- serving

struct Query {
  int64_t node = 0;
  double due_ms = 0.0;  ///< offset from the phase start
};

/// Hot set (10% of the nodes) for skewed node ids.
std::vector<int64_t> MakeHotSet(int64_t n, BenchRng* rng);
/// Poisson arrivals at `rate_qps` for `duration_s`; 80% of ids from `hot`.
std::vector<Query> MakeSchedule(int64_t n, const std::vector<int64_t>& hot,
                                double rate_qps, double duration_s,
                                BenchRng* rng);

/// The serving workload's traffic, all drawn from BenchRng(seed): a warm-up,
/// the `low` (2k qps) and `high` (20k qps) open-loop phases of
/// 0.3 x `seconds` each, and a burst of node ids sent at once.
struct Traffic {
  std::vector<Query> warm, low, high;
  std::vector<int64_t> burst;
  InputPrint fingerprint;  ///< exact hash of the schedule
};
Traffic MakeTraffic(int64_t n, uint64_t seed, double seconds);
/// Fingerprint-table key of the traffic for `seed` at `seconds`.
std::string TrafficKey(uint64_t seed, double seconds);

/// Serving configuration: sgnn_serve's command-line defaults.
sgnn::serve::EngineConfig ServeConfig();

/// A trained, saved and reloaded checkpoint ready to serve.
struct Servable {
  sgnn::serve::Checkpoint ckpt;
  double load_ms = 0.0;
  double train_acc = 0.0;  ///< test accuracy (%) of the exporting run
};

/// Trains `filter` on `in` with the MB scheme and export, then saves and
/// reloads the checkpoint under `path`.
[[nodiscard]] sgnn::Result<Servable> TrainCheckpoint(
    const Inputs& in, const std::string& filter, int epochs, uint64_t seed,
    const std::string& path);

/// Outcome of one open-loop phase.
struct Phase {
  std::vector<double> latency_ms;  ///< due → fulfilment, successful queries
  std::vector<double> late_ms;     ///< submit − due, every query
  int64_t offered = 0;
  int64_t failed = 0;      ///< shed, error, or wrong logits
  double mean_batch = 0.0;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  bool backlog = false;    ///< latency still rising at the end
};

/// True when `a` and `b` hold the same floats bit for bit.
inline bool SameBits(const std::vector<float>& a,
                     const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Logits of a singleton ServeBatch of `node`, memoised in `reference`: the
/// bit-identity reference for every reply of the engine.
const std::vector<float>& ReferenceRow(
    sgnn::serve::Engine* engine, int64_t node,
    std::map<int64_t, std::vector<float>>* reference);

/// Runs `schedule` open loop against a started engine from one generator
/// thread, verifies every reply against a singleton ServeBatch of its node
/// (memoised in `reference`), and returns the phase statistics. Spans are
/// recorded per query when tracing is on.
Phase RunPhase(sgnn::serve::Engine* engine, const std::vector<Query>& schedule,
               std::map<int64_t, std::vector<float>>* reference,
               const std::string& label);

/// Limit on the generator's p99 lateness; a phase beyond it is invalid. A
/// spinning thread on a 4-vCPU virtual machine was measured stalling for
/// up to ~10 ms (p99.9 7 ms with nothing else running), so the limit sits
/// above that and catches a generator that cannot keep up, not VM jitter.
inline constexpr double kLateLimitMs = 15.0;
/// Runs of an end-to-end phase before an invalid one fails the benchmark.
inline constexpr int kPhaseAttempts = 3;
/// Latency limit of the capacity search.
inline constexpr double kP99LimitMs = 10.0;

/// Accuracy (%) of served logits over the test split.
[[nodiscard]] sgnn::Result<double> ServedAccuracy(sgnn::serve::Engine* engine,
                                                  const Inputs& in);

// ----------------------------------------------------------- entry points

void RunEndToEnd(const Options& opt, const WorkloadSpec& w, Result* result);
void RunTraced(const Options& opt, const WorkloadSpec& w, Result* result);

}  // namespace perfbench

#endif  // SGNN_PERFBENCH_COMMON_H_
