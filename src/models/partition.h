// Graph-partition (GP) training scheme (paper Table 2, Section 2.2).
//
// The model-agnostic scalability workaround: partition the node set,
// drop cross-partition edges, and train full-batch per part. Memory scales
// with the largest part instead of the graph — but the severed topology
// "undermines GNN expressiveness" (paper), which the scheme-ablation bench
// quantifies against FB and MB.

#ifndef SGNN_MODELS_PARTITION_H_
#define SGNN_MODELS_PARTITION_H_

#include "core/filter.h"
#include "graph/graph.h"
#include "models/trainer.h"

namespace sgnn::models {

/// GP-scheme configuration.
struct PartitionConfig {
  TrainConfig base;
  /// Number of parts; each part trains as an independent full batch.
  int num_parts = 8;
};

/// Trains the decoupled model under the GP scheme: the nodes are split by
/// shard::GreedyBfsPartition (seeded by config.base.seed), and each epoch
/// sweeps the parts, each propagating only within its induced subgraph.
TrainResult TrainGraphPartition(const graph::Graph& g,
                                const graph::Splits& splits,
                                graph::Metric metric,
                                filters::SpectralFilter* filter,
                                const PartitionConfig& config);

}  // namespace sgnn::models

#endif  // SGNN_MODELS_PARTITION_H_
