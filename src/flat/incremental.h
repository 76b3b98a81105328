// Incremental GraphFlat maintenance under a mutation stream.
//
// A flattened dataset stores, per target t, exactly the union of the
// round-0 infos of every node within K in-hops of t. A mutation therefore
// dirties target t iff one of its K-hop in-neighborhood round-0 infos
// changed — i.e. iff a mutated node's *forward* (out-edge) K-hop closure
// reaches t (TableGraph::Levels over the post-mutation graph; see
// serve/mutation.h for why the removed edges need not be walked).
// MaintainedDataset keeps the stored payloads resident, finds those
// targets among them, and re-runs the GraphFlat pipeline only on the union
// of their K-hop in-neighborhoods, walked on the same TableGraph (every
// <=K in-path of a dirty target survives the pruning, so the re-flattened
// features are byte-identical to a cold full run over the mutated graph —
// the GraphLab DynPageRank idea of re-activating only affected vertices,
// applied to feature generation). It republishes the dataset through the
// same Storing step as RunGraphFlat, and only when a stored target is
// dirty.
//
// Byte-identity requires a deterministic pipeline: sampling must be off,
// and the hub re-index pass (which force-samples above `hub_threshold`)
// must not engage for any key. Both are validated when the dataset is
// loaded; afterwards only the nodes a batch changed can have gained
// in-edges, so only they are re-checked.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "flat/graphflat.h"
#include "flat/table_graph.h"
#include "flat/tables.h"
#include "mr/local_dfs.h"

namespace agl::flat {

struct ReflattenStats {
  int64_t dirty_targets = 0;  // stored targets re-flattened
  bool published = false;     // the dataset was re-published
};

/// A flattened dataset kept byte-identical to a cold `RunGraphFlat` over a
/// mutating TableGraph, with its payloads (`target id -> serialized
/// GraphFeature`) resident in memory.
///
/// Cost: Open reads and parses the whole dataset and scans both tables,
/// O(graph). A batch costs its two K-hop closures plus, only when a stored
/// target is dirty, the pruned re-run and one re-publish of the dataset;
/// a batch that dirties no stored target touches neither the tables nor
/// the DFS.
///
/// Failure: any failure drops the resident payloads, so a batch's new
/// payloads stay resident only once its publish succeeded, and keeps the
/// batch's changed nodes; the next batch reloads the dataset from the DFS
/// with Open's full checks and re-flattens the targets of every batch
/// since the last success. The on-DFS dataset lags until then.
class MaintainedDataset {
 public:
  /// Loads `dataset` for `graph`. kFailedPrecondition unless `dataset`
  /// exists, has the part layout `config` writes (max(1, num_shards) x
  /// output_parts parts), stores exactly the graph's target set,
  /// `config.sampler` is
  /// Strategy::kNone, and no node's in-degree exceeds `hub_threshold`
  /// (when hub handling is enabled) — sampling and hub re-indexing would
  /// make the pruned re-run diverge from the cold reference. `dfs` must
  /// outlive the object.
  static agl::Result<MaintainedDataset> Open(const GraphFlatConfig& config,
                                             const TableGraph& graph,
                                             mr::LocalDfs* dfs,
                                             std::string dataset);

  /// Brings the dataset up to date with `graph`, which a batch changed:
  /// `changed` holds each node whose table row or in-edge set changed.
  /// kFailedPrecondition when a changed node now exceeds `hub_threshold`.
  /// `stats` is set on success only.
  agl::Status Update(const TableGraph& graph,
                     const std::vector<NodeId>& changed,
                     ReflattenStats* stats = nullptr);

 private:
  MaintainedDataset(const GraphFlatConfig& config, mr::LocalDfs* dfs,
                    std::string dataset)
      : config_(config), dfs_(dfs), dataset_(std::move(dataset)) {}

  /// Reads and checks the stored dataset into payload_of_.
  agl::Status Load(const TableGraph& graph);
  /// The pruned re-run and publish for a non-empty set of dirty targets.
  agl::Status Reflatten(const TableGraph& graph,
                        const std::unordered_set<NodeId>& dirty);

  GraphFlatConfig config_;
  mr::LocalDfs* dfs_;
  std::string dataset_;
  /// The published payloads; empty when a failure dropped them.
  std::unordered_map<NodeId, std::string> payload_of_;
  bool loaded_ = false;
  /// Changed nodes of the batches since the last successful Update.
  std::vector<NodeId> pending_;
};

}  // namespace agl::flat
