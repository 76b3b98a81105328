// Incremental GraphFlat maintenance under a mutation stream.
//
// A flattened dataset stores, per target t, exactly the union of the
// round-0 infos of every node within K in-hops of t. A mutation therefore
// dirties target t iff one of its K-hop in-neighborhood round-0 infos
// changed — i.e. iff a mutated node's *forward* (out-edge) K-hop closure
// reaches t (TableGraph::Levels over the post-mutation graph; see
// serve/mutation.h for why the removed edges need not be walked).
// ReflattenDirty finds those targets and re-runs the GraphFlat pipeline
// only on the union of their K-hop in-neighborhoods, walked on the same
// TableGraph (every <=K in-path of a dirty target survives the pruning, so
// the re-flattened features are byte-identical to a cold full run over the
// mutated graph — the GraphLab DynPageRank idea of re-activating only
// affected vertices, applied to feature generation) and republishes the
// dataset through the same Storing step as RunGraphFlat.
//
// Byte-identity requires a deterministic pipeline: sampling must be off,
// and the hub re-index pass (which force-samples above `hub_threshold`)
// must not engage for any key. Both are validated up front.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "flat/graphflat.h"
#include "flat/table_graph.h"
#include "flat/tables.h"
#include "mr/local_dfs.h"

namespace agl::flat {

struct ReflattenStats {
  int64_t candidate_targets = 0;  // nodes in the changed nodes' closure
  int64_t dirty_targets = 0;      // candidates that are stored targets
  int64_t reused_payloads = 0;    // stored features carried over untouched
  int64_t pruned_nodes = 0;       // node rows the re-run actually processed
  int64_t pruned_edges = 0;
  double elapsed_seconds = 0;
};

/// Recomputes the flattened features of the stored targets within
/// `config.hops` out-hops of a `changed` node (one whose table row or
/// in-edge set changed) against the *post-mutation* `graph` (walking only
/// their K-hop in-closure) and republishes `dataset` with every other
/// stored payload reused as-is: byte-identical to a cold `RunGraphFlat`
/// over the graph's tables.
///
/// Requirements (kFailedPrecondition otherwise): `dataset` exists and
/// stores exactly the current target set, `config.sampler` is
/// Strategy::kNone, and no node's in-degree exceeds `hub_threshold` (when
/// hub handling is enabled) — sampling and hub re-indexing would make the
/// pruned re-run diverge from the cold reference.
agl::Status ReflattenDirty(const GraphFlatConfig& config,
                           const TableGraph& graph,
                           const std::vector<NodeId>& changed,
                           mr::LocalDfs* dfs, const std::string& dataset,
                           ReflattenStats* stats = nullptr);

}  // namespace agl::flat
