// Vertex-program analytics layer: a compact gather-apply-scatter API (the
// GraphLab `ivertex_program` shape) compiled onto the same sharded
// MapReduce round loop that runs GraphFlat.
//
// One superstep is one Reduce round: each vertex receives its own state
// record plus the scatter messages its in-neighbors pushed in the previous
// round, folds the messages into a per-in-edge gather cache, recomputes its
// value with VertexProgram::Apply over the full cache (pure Jacobi
// recomputation — no dependence on message arrival order), and, when the
// value changed, pushes a fresh scatter message along every out-edge. A
// vertex whose in-neighbors are all quiet receives no messages and
// generates no traffic (the DynPageRank only-affected-vertices idiom), so
// the active set decays as the computation converges and the loop stops
// when a round produces zero messages.
//
// Determinism: the gather cache is keyed by source id (updates commute),
// Apply sees entries in sorted-source order, and the engine's canonical
// reduce-value ordering makes each round's output a function of the input
// multiset only. Combined with exact home-shard routing this makes the
// result byte-identical for every shard count — the property
// tests/analytics_test.cpp proves against an independent single-threaded
// oracle for each shipped program.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "flat/exchange.h"
#include "flat/shard.h"
#include "flat/tables.h"
#include "mr/local_dfs.h"
#include "mr/mapreduce.h"

namespace agl::analytics {

using flat::EdgeRecord;
using flat::NodeId;
using flat::NodeRecord;

/// Static per-vertex facts available to Init / Scatter / Apply. Degrees are
/// counted after the driver's adjacency normalization (symmetrization for
/// undirected programs, parallel-edge dedup).
struct VertexContext {
  NodeId id = 0;
  int64_t in_degree = 0;
  int64_t out_degree = 0;
  int64_t num_vertices = 0;
};

/// One slot of a vertex's gather cache: the latest scatter value received
/// along the in-edge `src -> self`. Every slot is filled in the first
/// superstep (all vertices scatter their initial value) and updated only
/// when the source re-activates.
struct GatherEntry {
  NodeId src = 0;
  float weight = 1.f;
  double value = 0.0;
  bool received = false;
};

/// A gather-apply-scatter vertex program. Implementations must be
/// immutable after construction: one instance is shared by all concurrent
/// reduce tasks and every method must be a pure function of its arguments
/// (task retries re-run them).
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Program name, used by the CLI and in error messages.
  virtual std::string Name() const = 0;

  /// True: gather over both edge directions (the driver symmetrizes the
  /// edge table, so in- and out-adjacency coincide). False: gather strictly
  /// over in-edges, scatter strictly over out-edges.
  virtual bool Undirected() const { return false; }

  /// Initial vertex value, before any message exchange.
  virtual double Init(const VertexContext& ctx) const = 0;

  /// The value pushed along every out-edge when this vertex activates.
  virtual double Scatter(const VertexContext& /*ctx*/, double value) const {
    return value;
  }

  /// Recomputes the vertex value from the full gather set. `gathered` is
  /// sorted by source id; implementations must not depend on any other
  /// ordering. `current` is the value from the previous superstep.
  virtual double Apply(const VertexContext& ctx, double current,
                       std::span<const GatherEntry> gathered) const = 0;

  /// Does the change `previous -> next` re-activate the out-neighbors?
  /// Default: any bitwise value change (exact fixpoint programs). PageRank
  /// overrides this with its convergence tolerance.
  virtual bool Changed(double previous, double next) const {
    return previous != next;
  }
};

struct AnalyticsConfig {
  /// Upper bound on apply supersteps (the structural init round is not
  /// counted). The loop stops earlier when the active set drains.
  int max_supersteps = 50;
  /// Logical MapReduce shards; the vertex/edge tables are hash-partitioned
  /// with flat::ShardPlan and boundary messages are exchanged between
  /// supersteps. Output is invariant to this value.
  int num_shards = 1;
  /// Part files per DFS result dataset (WriteValuesDataset).
  int output_parts = 4;
  mr::JobConfig job;

  /// Structural validation, called up front by every `agl::Run` facade
  /// entry point (and usable directly).
  agl::Status Validate() const;
};

struct AnalyticsStats {
  /// Apply supersteps actually run (excludes the init round).
  int supersteps = 0;
  /// True when the active set drained before `max_supersteps`.
  bool converged = false;
  int64_t num_vertices = 0;
  /// Gather-side edges after normalization (symmetrization + dedup).
  int64_t num_gather_edges = 0;
  /// Vertices receiving at least one message, per apply superstep.
  std::vector<int64_t> active_per_round;
  /// Scatter messages consumed per apply superstep.
  std::vector<int64_t> messages_per_round;
  double elapsed_seconds = 0;
  mr::JobStats job_stats;
  /// Boundary-exchange traffic (aggregated across shards).
  flat::ExchangeStats exchange;
};

struct AnalyticsResult {
  /// Final (vertex id, value), sorted by id.
  std::vector<std::pair<NodeId, double>> values;
  AnalyticsStats stats;

  /// Canonical byte serialization of `values` — the unit the shard-count
  /// invariance harness compares bit-for-bit.
  std::string SerializeValues() const;
};

/// Runs `program` over the node/edge tables until convergence (zero active
/// vertices) or `config.max_supersteps`, its shards on threads over an
/// InMemoryExchange. Validates the tables up front: duplicate node ids and
/// edges whose endpoints are missing from the node table are
/// kInvalidArgument.
agl::Result<AnalyticsResult> RunVertexProgram(
    const AnalyticsConfig& config, const VertexProgram& program,
    const std::vector<NodeRecord>& nodes, const std::vector<EdgeRecord>& edges);

/// An analytics job as each shard sees it: the config with `num_shards` >=
/// 1 and the global vertex count every shard's bookkeeping divides by.
struct AnalyticsShardJob {
  AnalyticsConfig config;
  int64_t num_vertices = 0;
};

/// One shard's output: its final 'S'-tagged VertexState records and its
/// stats — shard-local job and exchange counters plus the globally agreed
/// superstep accounting (identical on every shard).
struct AnalyticsShardOutput {
  std::vector<mr::KeyValue> records;
  AnalyticsStats stats;
};

/// How a job's S shards run: shard s runs RunAnalyticsShard over
/// tables.nodes[s]/tables.edges[s] and every shard's output is returned.
/// RunVertexProgram runs them on threads; the multi-process driver runs
/// each in its own process over a DfsExchange.
using AnalyticsShardRunner =
    std::function<agl::Result<std::vector<AnalyticsShardOutput>>(
        const AnalyticsShardJob& job, const flat::ShardedTables& tables)>;

/// The job shell every substrate shares: validates and normalizes the
/// tables, partitions them over `config.num_shards`, runs the shards
/// through `run_shards`, and assembles the values and stats.
agl::Result<AnalyticsResult> RunVertexProgram(
    const AnalyticsConfig& config, const VertexProgram& program,
    const std::vector<NodeRecord>& nodes, const std::vector<EdgeRecord>& edges,
    const AnalyticsShardRunner& run_shards);

/// One shard's complete superstep loop against an Exchange: map over the
/// shard's table slice (after the shell's adjacency normalization), the
/// init reduce, then gather-apply-scatter rounds with Publish/Collect of
/// boundary messages between them. Convergence is decided identically on
/// every shard from an AllGather of the per-shard active counts (messages
/// home uniquely, so the sums are exact), which keeps the shards' control
/// flow in lockstep without a central coordinator. The output's exchange
/// counters stay zero; the runner books the traffic. This is the unit
/// every AnalyticsShardRunner runs, on a thread or in a shard process.
agl::Result<AnalyticsShardOutput> RunAnalyticsShard(
    const AnalyticsShardJob& job, const VertexProgram& program, int shard,
    const std::vector<NodeRecord>& shard_nodes,
    const std::vector<EdgeRecord>& shard_edges, flat::Exchange* exchange);

/// Publishes `result` on `dfs`/`dataset` as a GraphFeatures dataset: one
/// single-node GraphFeature per vertex (target_id = vertex, node_features
/// = [1 x 1] holding the value), id-sorted round-robin over
/// `config.output_parts` — so the dataset bytes depend only on the values
/// (never on the shard count or on threads vs processes) and every
/// GraphFeature reader (LoadGraphFeatures, DfsFeatureSource) can consume
/// analytics output directly.
agl::Status WriteValuesDataset(const AnalyticsResult& result,
                               const AnalyticsConfig& config,
                               mr::LocalDfs* dfs, const std::string& dataset);

/// Feature-generator composition: returns a copy of `nodes` with each
/// vertex's analytics value appended as one extra feature column, ready to
/// feed GraphFlat (e.g. PageRank as a node feature for the fraud example).
/// kInvalidArgument when `result` is missing a node's value.
agl::Result<std::vector<NodeRecord>> AugmentNodeTable(
    const std::vector<NodeRecord>& nodes, const AnalyticsResult& result);

}  // namespace agl::analytics
