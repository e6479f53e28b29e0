// sgnn_perfbench — the repository benchmark.
//
//   sgnn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir DIR] [--fingerprints FILE] [--rev REV]
//                  [--record-fingerprints N]
//
// Kernel threads are nproc (the CPUs this process may run on), or
// nproc - 1 while serving; the meta line records nproc and the count used.
//
// Workloads (why each is here):
//   fb_large        pokec_sim (n=80k, Fi=32), chebyshev K=10, full-batch.
//                   Each epoch is 2K SpMMs over ~1M nnz plus n-row GEMMs:
//                   propagation and large-GEMM kernels dominate.
//   fb_small_sweep  pubmed_sim (n=4k), full-batch over 12 filters spanning
//                   the fixed, variable, product and bank families. Kernel
//                   calls take ~1 ms, so ParallelFor dispatch and per-call
//                   allocation dominate; the only workload running the
//                   FB-only product filters and eager-only bernstein /
//                   optbasis.
//   mb_large        pokec_sim, gnn_lf_hf (bank), decoupled mini-batch: one
//                   host precompute, then per batch GatherRows + transfer,
//                   CombineTerms over the bank's terms and 4096-row GEMMs.
//   serve_open      open-loop Poisson arrivals against an Engine (sgnn_serve
//                   defaults) serving a chebyshev MB checkpoint of
//                   pokec_sim; 80% of node ids fall in a 10% hot set. No
//                   SpMM runs while serving.
//
// End-to-end metrics (--trace 0). Every metric is reported on every
// workload, so each has a training and a serving reading. Times are
// process CPU time (all threads): on a 4-vCPU virtual machine (Xeon, 2-9%
// steal) wall-clock times moved by up to a third from run to run with the
// host's load while CPU times moved by 3-8%. Wall-clock stage times are
// per-layer metrics of the traced run (models.*).
//
//   metric         training workloads               serve_open
//   setup_s        CPU s of input generation and    + checkpoint train,
//                  pool warm-up                       save, load, Engine
//   cpu_s          CPU s of the training call(s)    CPU s to answer a
//                  of `epochs` (sweep: all 12)      burst sent at once
//                                                   (mean of 40 bursts)
//   step_ms        CPU ms of one epoch: (CPU of     p50 due->fulfilment
//                  the `epochs` call - CPU of the   latency at 2k qps
//                  one-epoch call) / their
//                  difference in epochs (sweep:
//                  summed over filters)
//   peak_accel_mb  DeviceTracker high-water marks   same, over the serving
//   peak_ram_mb    (sweep: max over filters)        phases
//
// Both training calls validate once, at their last epoch, so precompute,
// validation, inference and per-call set-up cancel out of step_ms and show
// only in cpu_s. Process CPU time counts every cycle a thread burns: a
// change that trades CPU for wall time (a pool that spins before it parks)
// shows as a cpu_s/step_ms regression, and one that only loses parallelism
// shows only in the wall-clock per-layer metrics.
//
// Times are medians over repeated calls within the run (serve_open cpu_s:
// a mean, see kBursts in workloads.cc); set-up is run at least three times
// and its median reported. Shorter stages (inference, MB precompute) and
// the 20k qps latencies moved 10-20% between runs even
// in CPU time, so they are per-layer metrics (models.answer_wall_ms,
// core.precompute_ms, serve.p50_ms.high, serve.p99_ms.*, serve.max_qps).
//
// Failed work is counted in the result's `attempted`/`failed` fields: a
// non-OK cell, an FB->MB fallback or a non-finite loss for training; a
// shed, failed or wrong reply for serving. Further correctness checks: the
// final training loss, summed over the workload's filters, must be below
// that of the one-epoch calls from the same seed; test accuracy (median
// over repetitions; sweep: mean over filters) must reach the workload's
// floor; serve_open must classify the test split exactly as the exporting
// training run did. Test accuracy is not an end-to-end metric, because it
// varies by seed far more than any bound; it is reported per layer as
// models.test_acc. --trace 1 gives the per-layer metrics (layers.cc).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "tensor/parallel.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using perfbench::WorkloadSpec;

std::vector<WorkloadSpec> Workloads() {
  // Accuracy floors (percent) sit well above chance (pokec_sim has two
  // balanced classes, pubmed_sim three) and below the lowest value
  // measured: sweep mean 74.8 (seeds 1-12), mb_large 66.3 (seeds 300-339),
  // serve_open 67.3 (seeds 300-339). The serving checkpoint trains five
  // epochs: after one, served accuracy fell to 57.6% on seed 312. fb_large
  // has none: FB chebyshev on pokec_sim stays near chance for its first
  // epochs (49.6-66.7% at 3; 60-70% at 10 on seeds 1-3, ~15 s a call), so
  // its falling training loss (by at least 5.7% over seeds 1-12) is the
  // check that it learns.
  // fb_large measures five repetitions (~40 s): with three, its step_ms
  // spread over five seeds was 0.077 of the median, with five 0.042.
  return {
      {"fb_large", "pokec_sim", "fb", {"chebyshev"}, 3, 5, 0.0, false},
      {"fb_small_sweep",
       "pubmed_sim",
       "fb",
       {"identity", "linear", "impulse", "ppr", "monomial", "var_monomial",
        "chebyshev", "bernstein", "optbasis", "fagnn", "g2cn", "figure"},
       5,
       3,
       65.0,
       false},
      {"mb_large", "pokec_sim", "mb", {"gnn_lf_hf"}, 5, 3, 62.0, false},
      {"serve_open", "pokec_sim", "mb", {"chebyshev"}, 5, 3, 60.0, true},
  };
}

/// CPUs this process may run on, as `nproc` counts them. Not
/// hardware_concurrency(): it counts every CPU of the host, so on a few
/// cores of a large machine it would start far more threads than there are
/// cores to run them.
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c >= 0x20 ? c : ' ');
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: sgnn_perfbench --workload <fb_large|fb_small_sweep|"
               "mb_large|serve_open> --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--fingerprints FILE] "
               "[--rev REV] [--record-fingerprints N]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.threads = Nproc();
  std::string rev("unknown");
  int record = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else if (key == "--fingerprints") {
      opt.fingerprints = value;
    } else if (key == "--rev") {
      rev = value;
    } else if (key == "--record-fingerprints") {
      record = std::atoi(value.c_str());
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (record > 0) {
    // Prints the fingerprint table for seeds [0, record) at --seconds.
    for (int seed = 0; seed < record; ++seed) {
      const auto s = static_cast<uint64_t>(seed);
      for (const char* dataset : {"pokec_sim", "pubmed_sim"}) {
        const perfbench::Inputs in = perfbench::MakeInputs(dataset, s);
        std::printf(
            "%s/%d %s\n", dataset, seed,
            perfbench::GraphFingerprint(in.g, in.splits).ToString().c_str());
        if (std::string(dataset) == "pokec_sim") {
          std::printf("%s %s\n",
                      perfbench::TrafficKey(s, opt.seconds).c_str(),
                      perfbench::MakeTraffic(in.g.n, s, opt.seconds)
                          .fingerprint.ToString()
                          .c_str());
        }
      }
    }
    return 0;
  }
  const WorkloadSpec* w = nullptr;
  const auto specs = Workloads();
  for (const auto& s : specs) {
    if (s.name == opt.workload) w = &s;
  }
  if (w == nullptr) return Usage("unknown or missing --workload");
  if (opt.seconds <= 0.0) return Usage("bad value");

  // The environment must not change the inputs, the thread count, or arm
  // faults: every knob the library reads from it is cleared.
  for (const char* var : {"SGNN_NUM_THREADS", "SPECTRAL_SCALE",
                          "SPECTRAL_FAULT_PLAN", "SPECTRAL_JOURNAL_DIR",
                          "SPECTRAL_CELL_DEADLINE_MS"}) {
    unsetenv(var);
  }
  // Serving leaves one core to the generator and the dispatcher.
  const int kernel_threads =
      w->serving && !opt.trace ? std::max(1, opt.threads - 1) : opt.threads;
  sgnn::parallel::SetNumThreads(kernel_threads);

  std::printf(
      "meta {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"rev\":\"%s\",\"nproc\":%d,\"host_cpus\":%u,\"kernel_threads\":%d,"
      "\"compiler\":\"%s\","
      "\"flags\":\"%s\",\"cpu\":\"%s\"}\n",
      w->name.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, JsonEscape(rev).c_str(),
      opt.threads, std::thread::hardware_concurrency(), kernel_threads,
      JsonEscape(PERFBENCH_COMPILER).c_str(),
      JsonEscape(PERFBENCH_FLAGS).c_str(), JsonEscape(CpuModel()).c_str());
  std::fflush(stdout);

  perfbench::Result result;
  if (opt.trace) {
    perfbench::RunTraced(opt, *w, &result);
  } else {
    perfbench::RunEndToEnd(opt, *w, &result);
  }
  if (result.attempted < 1) result.Fail("no work was attempted");

  for (const auto& [name, vu] : result.metrics) {
    if (!std::isfinite(vu.first)) {
      result.Fail("metric " + name + " is not finite");
    }
  }
  std::string metrics;
  for (const auto& [name, vu] : result.metrics) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(vu.first) ? vu.first : -1.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               vu.second + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return result.correct() ? 0 : 1;
}
