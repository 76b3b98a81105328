// GraphFlat (§3.2): the distributed MapReduce generator of k-hop
// neighborhoods. Usage mirrors Figure 6:
//
//   GraphFlat -n node_table -e edge_table -h hops -s sampling_strategy
//
// The pipeline:
//   Map    — runs once; per node emits self info keyed by the node, per
//            edge emits in-edge info keyed by the destination and out-edge
//            info keyed by the source.
//   Reduce — runs k+1 times. Round 0 folds the in-edge structure into each
//            node's self info (this joins neighbor ids/edge features; the
//            paper's input tables arrive pre-joined, ours do the join as
//            the first round). Rounds 1..k merge the neighbor states
//            propagated along out-edges, growing the self info by one hop
//            per round, then propagate the merged state again.
//   Store  — final self infos for the requested targets are flattened to
//            GraphFeature byte strings on the LocalDfs.
//
// Skew handling (§3.2.2): before each Reduce round, records whose shuffle
// key exceeds `hub_threshold` are re-indexed with random suffixes, partially
// sampled+merged per suffix shard (sound because state merge is a set
// union), and inverted back to the original key.
//
// Sharding (`num_shards` > 1): the tables are hash-partitioned across S
// logical shards and one job runs per shard, with boundary states
// exchanged between rounds. After the last exchange every record of a key
// sits on its home shard, so the last round flattens each key exactly as
// the single-shard run does, and each shard stores its own id-sorted
// slice, which the coordinator unifies under the one dataset name. Output
// is byte-identical for every shard count; see shard.h.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "flat/exchange.h"
#include "flat/shard.h"
#include "flat/tables.h"
#include "mr/local_dfs.h"
#include "mr/mapreduce.h"
#include "sampling/sampler.h"
#include "subgraph/graph_feature.h"

namespace agl::flat {

struct GraphFlatConfig {
  /// Neighborhood radius k (the GNN depth it must support).
  int hops = 2;
  /// Sampling applied to each node's in-edge neighbor set every round.
  sampling::SamplerConfig sampler;
  /// In-degree above which a shuffle key is re-indexed across suffix shards
  /// ("like 10k" in the paper; tests use small values).
  int64_t hub_threshold = 10000;
  /// Number of suffix shards a hub key is split into.
  int reindex_fanout = 8;
  /// Which nodes receive a GraphFeature.
  enum class Targets { kLabeledNodes, kAllNodes };
  Targets targets = Targets::kLabeledNodes;
  /// Part files written to the DFS dataset (per shard when sharded).
  int output_parts = 4;
  /// Logical MapReduce shards. The tables are hash-partitioned (nodes to
  /// their home shard, edges to both endpoint shards so the round-0 join
  /// stays local), one GraphFlat job runs per shard with boundary states
  /// exchanged between rounds, and each shard stores the features of the
  /// targets homed on it. Output is invariant to this value; see
  /// src/flat/shard.h.
  int num_shards = 1;
  mr::JobConfig job;

  /// Structural validation, called up front by every `agl::Run` facade
  /// entry point (and usable directly).
  agl::Status Validate() const;
};

struct GraphFlatStats {
  int64_t num_features = 0;
  int64_t total_nodes = 0;   // sum over features
  int64_t total_edges = 0;
  int64_t max_nodes = 0;     // largest single neighborhood
  double elapsed_seconds = 0;
  mr::JobStats job_stats;
  /// Boundary-exchange traffic (sharded runs only; zeros otherwise).
  ExchangeStats exchange;

  /// Adds one shard's counters: sums, except `max_nodes` (the max);
  /// `elapsed_seconds` is left alone.
  void Accumulate(const GraphFlatStats& other);
};

/// A sharded GraphFlat job as each shard sees it: the config with
/// `num_shards` >= 1, the feature dims inferred from the full tables (a
/// shard's slice may be edgeless), and where the features go. With a
/// `dataset`, shard s stores its slice as mr::ShardDatasetName(dataset, s)
/// on the DFS at `output_root`; with none, it returns its features.
struct FlatShardJob {
  GraphFlatConfig config;
  int64_t node_feature_dim = 0;
  int64_t edge_feature_dim = 0;
  std::string output_root;
  std::string dataset;
};

/// One shard's output.
struct FlatShardOutput {
  /// (target id, serialized GraphFeature) of the targets homed on the
  /// shard; empty when the job names a dataset (the shard stored them).
  std::vector<std::pair<NodeId, std::string>> features;
  /// Counts of the features the shard built, its job counters, and its
  /// exchange traffic (booked by the runner); `elapsed_seconds` unset.
  GraphFlatStats stats;
};

/// How a sharded job's S shards run: shard s runs RunFlatShard over
/// tables.nodes[s]/tables.edges[s] and every shard's output is returned.
/// RunGraphFlat runs them on threads over an InMemoryExchange; the
/// multi-process driver runs each in its own process over a DfsExchange.
using FlatShardRunner = std::function<agl::Result<std::vector<FlatShardOutput>>(
    const FlatShardJob& job, const ShardedTables& tables)>;

/// Runs the full pipeline and writes the flattened GraphFeatures to
/// `dfs`/`dataset`. Feature dims are inferred from the first node/edge.
/// With `num_shards` > 1 this is the sharded job below on threads.
agl::Result<GraphFlatStats> RunGraphFlat(const GraphFlatConfig& config,
                                         const std::vector<NodeRecord>& nodes,
                                         const std::vector<EdgeRecord>& edges,
                                         mr::LocalDfs* dfs,
                                         const std::string& dataset);

/// The sharded job shell every substrate shares: infers the feature dims,
/// partitions the tables over `config.num_shards`, runs the shards through
/// `run_shards` (each stores its slice of `dataset` on `dfs`), and unifies
/// the slices into the dataset RunGraphFlat writes, with the same stats.
/// A failed job, unify included, drops every slice and leaves an earlier
/// `dataset` as it was (an injected crash drops nothing, as a killed
/// process would not).
agl::Result<GraphFlatStats> RunGraphFlat(const GraphFlatConfig& config,
                                         const std::vector<NodeRecord>& nodes,
                                         const std::vector<EdgeRecord>& edges,
                                         mr::LocalDfs* dfs,
                                         const std::string& dataset,
                                         const FlatShardRunner& run_shards);

/// In-memory variant used by tests and small benchmarks: returns the
/// GraphFeatures directly instead of writing to the DFS.
agl::Result<std::vector<subgraph::GraphFeature>> RunGraphFlatInMemory(
    const GraphFlatConfig& config, const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges, GraphFlatStats* stats = nullptr);

/// Exposed for tests: applies the re-index/sample/invert pass to one
/// round's shuffle input. Records with key multiplicity above
/// `hub_threshold` are suffixed, each suffix shard is sampled down, and the
/// original keys restored.
agl::Result<std::vector<mr::KeyValue>> ReindexAndSampleHubKeys(
    const GraphFlatConfig& config, std::vector<mr::KeyValue> records,
    int round);

/// Publishes `(target id, serialized GraphFeature)` payloads as `dataset`
/// exactly the way RunGraphFlat's Storing step does: id-sorted round-robin
/// over `output_parts` part files, or, when `num_shards` > 1, one such
/// slice per home shard unified under one name. The incremental re-flatten
/// path publishes through it, so both write byte-identical datasets for
/// the same payload set. A failed sharded publish drops its slices the way
/// the sharded RunGraphFlat does.
agl::Status StoreFeaturePayloads(
    const GraphFlatConfig& config,
    std::vector<std::pair<NodeId, std::string>> finals, mr::LocalDfs* dfs,
    const std::string& dataset);

/// One shard's complete sharded-pipeline run against an Exchange: map over
/// the shard's table slice, then the k+1 reduce rounds with Publish/Collect
/// of boundary states between them; the last round flattens the targets
/// homed on the shard. With `job.dataset` set, the shard stores them
/// through `out_dfs` (required then) and returns only their counts;
/// otherwise it returns them. `stats.exchange` stays zero; the runner
/// books the traffic. This is the unit every FlatShardRunner runs, on a
/// thread or in a shard process — byte-identical either way, because each
/// reduce group sees the same value multiset and the engine delivers
/// values in canonical order. Shard threads must share the caller's
/// LocalDfs: LocalDfs::Open sweeps its own process's scratch directories,
/// which would include a sibling thread's in-flight publish.
agl::Result<FlatShardOutput> RunFlatShard(
    const FlatShardJob& job, int shard,
    const std::vector<NodeRecord>& shard_nodes,
    const std::vector<EdgeRecord>& shard_edges, Exchange* exchange,
    mr::LocalDfs* out_dfs);

}  // namespace agl::flat
