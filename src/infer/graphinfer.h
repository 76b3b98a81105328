// GraphInfer (§3.4): distributed MapReduce inference with model slices.
//
// A trained K-layer model is segmented into K+1 slices. The pipeline runs
// the message-passing scheme over K rounds: round k merges each node's
// in-edge neighbors' layer-(k-1) embeddings through slice k and propagates
// the new embedding along out-edges; the last round also applies the
// prediction slice. Every node's layer-k embedding is computed at most
// once — this is the source of the Table 5 win over per-GraphFeature
// ("Original") inference, whose overlapping neighborhoods recompute shared
// embeddings many times.
//
// A pass is demand-driven: it walks in-edges back from the targets, so a
// node at in-depth d is evaluated only for rounds <= K - d — exactly the
// values the targets' scores depend on (Theorem 1).
//
// RunGraphInferBatched extends the win *across* pipeline runs: the target
// nodes are partitioned into slices that flow through the rounds one after
// another, and an EmbeddingStore shared by the slices (and, in serving, by
// every pass) holds each evaluated (node, round) value. The walk stops at
// a pair the store holds and feeds that value in, so a later slice never
// re-derives what an earlier one stored, and a pass whose targets are all
// stored runs no MapReduce round at all.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "flat/table_graph.h"
#include "flat/tables.h"
#include "gnn/model.h"
#include "infer/segmentation.h"
#include "mr/mapreduce.h"

namespace agl::infer {

class EmbeddingStore;

struct InferConfig {
  gnn::ModelConfig model;
  mr::JobConfig job;
  /// Logical MapReduce shards, mirroring GraphFlat's sharding: records are
  /// hash-partitioned by node key, one job runs per shard per round, and
  /// boundary embeddings are exchanged between rounds. Scores are invariant
  /// to this value (bit-exact: the engine's canonical value ordering fixes
  /// the float accumulation order).
  int num_shards = 1;
  /// When non-empty, inference runs only for these target nodes and the
  /// pipeline is pruned to their K-hop in-neighborhoods (§3.4: "the
  /// pruning strategy similar to that in GraphTrainer also works in this
  /// pipeline in the case the inference task is performed over a part of
  /// the entire graph"). Scores are returned for exactly these ids.
  std::vector<flat::NodeId> target_ids;

  // --- Batched driver (RunGraphInferBatched) only -----------------------
  /// Number of slices the targets are partitioned into; each slice runs
  /// the MapReduce rounds over what its targets read and the store lacks.
  /// Scores are bit-identical to running the slices independently through
  /// RunGraphInfer, for every (batch_slices, num_shards, cache budget)
  /// combination.
  int batch_slices = 1;
  /// Resident byte budget of the cross-slice segment-embedding cache:
  /// 0 disables the cache entirely, negative means unbounded.
  int64_t cache_budget_bytes = 0;
  /// When non-empty and the cache is enabled, budget evictions spill to
  /// this record_file (park it under a LocalDfs root to emulate the
  /// paper's DFS) instead of being dropped, so a budget smaller than the
  /// working set still serves cross-slice hits.
  std::string cache_spill_path;

  /// Structural validation, called up front by every `agl::Run` facade
  /// entry point (and usable directly): shape/range errors surface as
  /// kInvalidArgument before any work runs.
  agl::Status Validate() const;
};

/// Cost accounting in the paper's Table 5 units.
struct InferCosts {
  double time_seconds = 0;
  double cpu_core_minutes = 0;
  /// Integral of live record bytes over round durations.
  double memory_gb_minutes = 0;
  /// Embedding evaluations performed (layer applications per node); the
  /// Original baseline repeats these across overlapping neighborhoods, and
  /// a store hit skips the evaluation and everything it would have read.
  int64_t embedding_evaluations = 0;

  // EmbeddingStore counters of this call (zero without a store). The walk
  // looks up each (node, round) pair a slice reads once, so hits + misses
  // is the number of pairs it read above round 0.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_spilled = 0;
  int64_t cache_spill_hits = 0;
  int64_t cache_spill_failures = 0;
};

struct InferResult {
  /// Predicted score vector per node, sorted by node id.
  std::vector<std::pair<flat::NodeId, std::vector<float>>> scores;
  InferCosts costs;
  /// Target slices the batched driver actually ran (1 for RunGraphInfer).
  int num_slices = 1;
};

/// Runs distributed inference over the full node/edge tables with a trained
/// state dict (GnnModel::StateDict / TrainReport::final_state).
agl::Result<InferResult> RunGraphInfer(
    const InferConfig& config,
    const std::map<std::string, tensor::Tensor>& state,
    const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges);

/// Batched inference: partitions `config.target_ids` (or every node id when
/// empty) into `config.batch_slices` slices via PartitionTargets, runs the
/// sliced pipeline per slice, and shares one EmbeddingCache across the
/// slices so overlapping neighborhood embeddings are evaluated once.
/// Scores are bit-identical to per-slice RunGraphInfer runs.
agl::Result<InferResult> RunGraphInferBatched(
    const InferConfig& config,
    const std::map<std::string, tensor::Tensor>& state,
    const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges);

/// Same, over a caller-owned graph index and EmbeddingStore — the serving
/// loop hands every pass its one flat::TableGraph (so a pass walks only the
/// targets' in-neighborhood), the same persistent store, so embeddings
/// survive across requests and process restarts, and the model constants
/// it computed once: `slices` (SegmentModel of the state dict) and
/// `model_version` (its StateFingerprint, the version of every store key).
/// `config.cache_budget_bytes` and `config.cache_spill_path` are ignored.
/// The cache counters in InferCosts report this call's delta, not the
/// store's lifetime totals.
agl::Result<InferResult> RunGraphInferBatched(
    const InferConfig& config, const std::vector<ModelSlice>& slices,
    uint64_t model_version, const flat::TableGraph& graph,
    EmbeddingStore* store);

/// kInvalidArgument naming the first node whose feature width is not
/// `in_dim` — the input check every GraphInfer pass (and
/// serve::InferenceService::Start) runs before any round.
agl::Status CheckFeatureWidths(const std::vector<flat::NodeRecord>& nodes,
                               int64_t in_dim);

/// Deterministic contiguous partition of `targets` into at most
/// `batch_slices` non-empty slices (duplicates dropped, first occurrence
/// kept, caller order preserved). Shared by the batched driver and the
/// batched-vs-unbatched equivalence tests.
std::vector<std::vector<flat::NodeId>> PartitionTargets(
    const std::vector<flat::NodeId>& targets, int batch_slices);

/// FNV-1a fingerprint of a trained state dict (keys, shapes, raw values) —
/// the model_version component of the embedding-cache key.
uint64_t StateFingerprint(const std::map<std::string, tensor::Tensor>& state);

}  // namespace agl::infer
