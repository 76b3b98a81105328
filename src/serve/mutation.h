// Graph mutations for the always-on inference service.
//
// The service accepts a stream of edge/feature mutations interleaved with
// scoring requests. Each mutation dirties (a) the flattened-feature payloads
// of every stored target whose K-hop in-neighborhood it touches — the
// dataset side, handled by flat::MaintainedDataset — and (b) the cached
// (node, round) segment embeddings that were derived from the pre-mutation
// graph — the store side, handled by EmbeddingStore::Invalidate.
//
// The store side is model-aware, because each model type reads a different
// slice of the adjacency normalization (gnn::GnnModel::NormalizeAdjacency):
//
//   GraphSAGE  RowNormalized: row w holds w's in-edges only, so an edge
//              a->b mutation directly dirties row b alone.
//   GAT        WithSelfLoops, no degree normalization: same as SAGE — only
//              row b changes.
//   GCN        WithSelfLoops().GcnNormalized(): entries scale by
//              1/sqrt(row_deg(dst) * col_deg(src)). Edge a->b changes
//              row_deg(b) (all of row b) and col_deg(a) (every entry in
//              column a, i.e. rows outN(a) and a's own self-loop entry), so
//              rows {a, b} + outN(a) are directly dirty.
//
// A directly-dirty row w invalidates (w, r) for every cached round r >= 1;
// the dirt then propagates one out-hop per round: (x, r) is stale iff
// r >= base(w) + dist(w -> x) for some directly-dirty seed (w, base). A
// feature update at u seeds (u, base 0) — u's round-0 embedding is its raw
// feature row. Distances must bound both the old influence removed and the
// new influence added, i.e. hold over every pre- and post-mutation edge.
// The post-mutation graph alone gives the same levels: an edge the batch
// removed, x -> y, ends at y, which the batch itself seeds at level <= 1
// (0 for the dataset closure), so no path through it lowers any level.
// The same holds for GCN's outN(a): a removed a -> y adds only y.
//
// A batch also moves the graph fingerprint the persistent store is
// stamped with. RunningFingerprint maintains it per mutation in O(change),
// bit-identical to the full GraphFingerprint over the mutated tables.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "flat/table_graph.h"
#include "flat/tables.h"
#include "gnn/model.h"

namespace agl::serve {

/// One graph mutation. Text form:
///   add-edge <src> <dst> <weight> [f1,f2,...]
///   remove-edge <src> <dst>
///   update-features <node> f1,f2,...
struct Mutation {
  enum class Type { kAddEdge, kRemoveEdge, kUpdateFeatures };
  Type type = Type::kAddEdge;
  /// kAddEdge / kRemoveEdge: the edge (weight/features used by kAddEdge).
  flat::EdgeRecord edge;
  /// kUpdateFeatures: the node and its replacement feature row.
  flat::NodeId node = 0;
  std::vector<float> features;

  static agl::Result<Mutation> Parse(const std::string& line);
  std::string ToString() const;
};

/// Applies one mutation to `graph` in place, in O(degree), and returns its
/// inverse (a removal's inverse re-adds the removed record; an update's
/// restores the old row), so a failed batch rolls back without a snapshot.
/// Strict — the checks of flat::TableGraph's mutators: kAddEdge requires
/// both endpoints in the node table and no existing (src, dst) edge;
/// kRemoveEdge requires the edge (on a multi-edge it removes one of the
/// (src, dst) rows, unspecified which); kUpdateFeatures requires the node
/// and the table's feature width.
agl::Result<Mutation> ApplyMutation(const Mutation& m,
                                    flat::TableGraph* graph);
/// Applies an inverse returned by ApplyMutation to the graph that mutation
/// left. Exact and infallible: a removed edge comes back without the
/// admission checks, so the tables again hold the pre-mutation rows (edge
/// rows possibly reordered).
void UndoMutation(const Mutation& inverse, flat::TableGraph* graph);
/// The same as ApplyMutation on plain tables; edge rows may be reordered.
agl::Status ApplyMutation(const Mutation& m,
                          std::vector<flat::NodeRecord>* nodes,
                          std::vector<flat::EdgeRecord>* edges);

/// The two dirty frontiers of a mutation batch, before propagation.
struct DirtySeeds {
  /// Structural seeds for the flattened dataset: a node whose round-0 info
  /// (its table row + its in-edge set) changed. Forward K-hop closure of
  /// these over the post-mutation graph = the dirty stored targets.
  std::vector<flat::NodeId> dataset_seeds;
  /// Model-aware (node, base-round) seeds for the embedding store: the
  /// node's aggregation row changed (base 1) or its raw features changed
  /// (base 0).
  std::vector<std::pair<flat::NodeId, int>> cache_seeds;
};

/// Computes both frontiers for `batch`, already applied to `post`. GCN's
/// column-degree coupling reads outN(a) there.
DirtySeeds ComputeDirtySeeds(gnn::ModelType model,
                             const std::vector<Mutation>& batch,
                             const flat::TableGraph& post);

/// Propagates cache seeds through `num_layers` rounds of out-edge hops over
/// `post` and returns the per-node invalidation
/// floor: pairs (node, min_round) meaning every cached (node, r >= min_round)
/// entry is stale. min_round is clamped to >= 1 (round 0 is never cached)
/// and nodes whose best seed distance exceeds `num_layers` are dropped
/// (their cached rounds all predate the dirt's arrival).
std::vector<std::pair<flat::NodeId, int32_t>> PropagateInvalidations(
    const std::vector<std::pair<flat::NodeId, int>>& cache_seeds,
    const flat::TableGraph& post, int num_layers);

/// Order-insensitive fingerprint of the graph table contents: a sum of
/// per-row hashes of every field of every row (mod 2^64), with the row
/// counts folded in at the end. Two table pairs fingerprint equal iff they
/// hold the same multiset of rows — so a restart that re-reads identical
/// tables in a different row order still matches. The persistent store
/// stamps this next to the model version: embeddings are a function of
/// (weights, graph), and a published index whose graph no longer matches
/// the serving tables must come up cold.
uint64_t GraphFingerprint(const std::vector<flat::NodeRecord>& nodes,
                          const std::vector<flat::EdgeRecord>& edges);

/// GraphFingerprint maintained under mutations in O(change): a mutation
/// adds or subtracts the hashes of the rows it adds or removes (the added
/// edge, the removed edge, the old and new node row) and moves the row
/// counts. The serving loop keeps one so a batch restamps the store
/// without hashing both tables; value() stays bit-identical to
/// GraphFingerprint over the mutated tables.
class RunningFingerprint {
 public:
  /// Hashes every row, O(graph).
  RunningFingerprint(const std::vector<flat::NodeRecord>& nodes,
                     const std::vector<flat::EdgeRecord>& edges);

  /// Accounts for `m`, which ApplyMutation applied (returning `inverse`)
  /// to the graph that is now `post`. Mutations of a batch may be
  /// accounted for after the whole batch applied, in any order.
  void Apply(const Mutation& m, const Mutation& inverse,
             const flat::TableGraph& post);

  uint64_t value() const;

 private:
  uint64_t row_sum_;
  uint64_t num_nodes_;
  uint64_t num_edges_;
};

}  // namespace agl::serve
