// Plan executor + one-call pipeline.
//
// Replays a planned graph onto the existing tensor kernels (ops::*, which
// dispatch through ParallelFor with flop-weighted chunking) in recorded node
// order, so results are bit-identical at any thread count.
//
// Allocation discipline: all output destinations and pool buffers are
// allocated up front and nothing is freed until teardown, so the
// DeviceTracker peak grows by exactly Plan::planned_peak_bytes. A simulated
// accelerator OOM latched during those allocations (capacity overflow or an
// armed fault plan — see runtime/fault_injection.h) does not abort the
// kernels: execution completes with correct results, as after any
// over-capacity allocation, and Execute returns Status::OutOfMemory.

#ifndef SGNN_OPGRAPH_EXECUTOR_H_
#define SGNN_OPGRAPH_EXECUTOR_H_

#include <cstddef>

#include "opgraph/graph.h"
#include "opgraph/planner.h"

namespace sgnn::opgraph {

/// Executes `graph` under `plan`. Writes every marked output; returns
/// OutOfMemory when the run newly latched the accelerator OOM flag (results
/// are still fully computed — the simulation never fails an allocation).
[[nodiscard]] Status Execute(const Graph& graph, const Plan& plan);

/// Per-run statistics surfaced to benches and journals.
struct PipelineStats {
  int nodes = 0;               ///< schedule length after fusion
  int fused_spmm_chains = 0;   ///< chains collapsed by FuseSpmmChains
  int pool_buffers = 0;        ///< reuse-pool buffer count
  size_t pool_bytes = 0;
  size_t output_bytes = 0;
  size_t planned_peak_bytes = 0;  ///< exact DeviceTracker growth
};

/// Fuse → plan → execute in one call. `stats` is optional.
[[nodiscard]] Status RunPipeline(Graph* graph, PipelineStats* stats = nullptr);

}  // namespace sgnn::opgraph

#endif  // SGNN_OPGRAPH_EXECUTOR_H_
