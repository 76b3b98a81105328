// Sharded GraphFlat (§3.2 at scale): the node/edge tables are
// hash-partitioned across S logical MapReduce shards, each shard runs the
// GraphFlat rounds over its own key range, and a router exchanges boundary
// records (neighbor states whose destination lives on another shard)
// between rounds. Every shuffle key has exactly one home shard, so each
// reduce group sees the same value multiset as a single-shard run — which,
// combined with the engine's canonical value ordering, makes the pipeline's
// output invariant to the shard count (the property tests/sharding_test.cpp
// proves byte-for-byte).
//
// The shard jobs move boundary records through a flat::Exchange
// (exchange.h). Across processes that is a DfsExchange, where a shard
// keeps its own bucket (the records homed on itself) in memory: only
// records bound for another shard cross the DFS, and only those count in
// `exchange.bytes`.
//
// GraphInfer reuses the same plan/router to shard its message-passing
// rounds.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "flat/tables.h"
#include "mr/mapreduce.h"

namespace agl::flat {

/// Deterministic assignment of shuffle keys to `num_shards` logical shards.
/// The hash is salted independently of the engine's reduce-task partitioner
/// so shard and task assignment stay decorrelated.
class ShardPlan {
 public:
  explicit ShardPlan(int num_shards);

  int num_shards() const { return num_shards_; }

  /// Home shard of a shuffle key (decimal node ids in GraphFlat/GraphInfer).
  int HomeShard(const std::string& key) const;

  /// Home shard of a node id; agrees with HomeShard(std::to_string(id)).
  int HomeShardOf(NodeId id) const;

 private:
  int num_shards_ = 1;
};

/// Per-shard slices of the raw input tables.
struct ShardedTables {
  std::vector<std::vector<NodeRecord>> nodes;  // [shard] -> owned node rows
  std::vector<std::vector<EdgeRecord>> edges;  // [shard] -> incident edges
};

/// Moves records between the per-shard jobs.
class ShardRouter {
 public:
  explicit ShardRouter(ShardPlan plan) : plan_(plan) {}

  /// Splits the raw tables into per-shard map inputs: a node row goes to
  /// the node's home shard; an edge row goes to BOTH endpoint shards (once,
  /// when they coincide) so the round-0 join stays local — the in-edge stub
  /// is consumed at dst's shard and the out-edge stub at src's shard.
  ShardedTables PartitionTables(const std::vector<NodeRecord>& nodes,
                                const std::vector<EdgeRecord>& edges) const;

  /// Drops records whose key is not homed on `shard`. Applied to each
  /// shard's map output: an edge mapped on both endpoint shards emits its
  /// two stubs twice, and the filter keeps each stub only on its home
  /// shard, so every record survives exactly once globally.
  void FilterToShard(int shard, std::vector<mr::KeyValue>* records) const;

  /// The inter-round exchange: regroups every shard's output by the home
  /// shard of each record's key. This is the boundary traffic — neighbor
  /// states propagated along edges that cross the partition.
  std::vector<std::vector<mr::KeyValue>> Exchange(
      std::vector<std::vector<mr::KeyValue>> per_shard) const;

  const ShardPlan& plan() const { return plan_; }

 private:
  ShardPlan plan_;
};

/// Runs `fn(shard)` for every shard concurrently (each shard job is itself
/// a multi-threaded MapReduce job; the paper runs them on disjoint cluster
/// slices) and returns the first non-OK status in shard order.
agl::Status ParallelOverShards(int num_shards,
                               const std::function<agl::Status(int)>& fn);

}  // namespace agl::flat
