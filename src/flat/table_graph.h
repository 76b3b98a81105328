// The one graph index over a node table and an edge table. GraphInfer's
// target pruning, the serving layer's mutation path and the incremental
// re-flatten ask the same questions of the tables — which row holds node v,
// which edges enter or leave v, how far v is from a set of seeds — and
// TableGraph answers them from one id -> vertex map, updated in place in
// O(degree) by mutations. Adjacency lists hold edge rows. An endpoint
// without a node row (GraphFlat's structure-only endpoint) still gets
// adjacency, with NodeRow() == -1. Node rows never move; RemoveEdge
// swap-removes, and no pipeline output depends on edge row order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "flat/tables.h"

namespace agl::flat {

class TableGraph {
 public:
  enum class Direction { kIn, kOut };

  /// Takes the tables and indexes them. Any tables are accepted; only the
  /// mutators check their input.
  TableGraph(std::vector<NodeRecord> nodes, std::vector<EdgeRecord> edges);

  const std::vector<NodeRecord>& nodes() const { return nodes_; }
  const std::vector<EdgeRecord>& edges() const { return edges_; }
  /// Moves the tables out; the graph is spent.
  void Release(std::vector<NodeRecord>* nodes,
               std::vector<EdgeRecord>* edges) &&;

  /// Row of node `id` in nodes(), or -1 when the node table lacks it.
  int64_t NodeRow(NodeId id) const;

  /// Rows in edges() of the edges entering (kIn) or leaving (kOut) `id`,
  /// in no particular order.
  const std::vector<std::size_t>& Adjacent(NodeId id, Direction dir) const;

  /// Level-bucketed multi-source BFS: for every node within `max_level`,
  /// min over seeds (s, base) of base + dist(s, v), following in-edges
  /// backwards (kIn) or out-edges forwards (kOut). Seeds with a base
  /// outside [0, max_level] are ignored.
  std::unordered_map<NodeId, int> Levels(
      const std::vector<std::pair<NodeId, int>>& seeds, Direction dir,
      int max_level) const;

  /// Copies of the node rows of the ids in `reached` and of the edges
  /// entering them, in table order. With `src_reached`, an edge is kept
  /// only when its src was reached too.
  std::pair<std::vector<NodeRecord>, std::vector<EdgeRecord>> Slice(
      const std::unordered_map<NodeId, int>& reached, bool src_reached) const;

  // Strict mutators; on error nothing changed.

  /// kNotFound when an endpoint has no node row, kAlreadyExists when a
  /// (src, dst) edge is present, kInvalidArgument when the feature width
  /// differs from the table's.
  agl::Status AddEdge(EdgeRecord edge);
  /// Returns the removed edge; kNotFound if absent. Of several (src, dst)
  /// rows (a multi-edge), which one goes is unspecified.
  agl::Result<EdgeRecord> RemoveEdge(NodeId src, NodeId dst);
  /// Appends `edge` without AddEdge's checks — the exact undo of
  /// RemoveEdge, which must be able to restore any row the tables held.
  void InsertEdge(EdgeRecord edge);
  /// Returns the old row; kNotFound for an unknown node, kInvalidArgument
  /// for a width change.
  agl::Result<std::vector<float>> SetFeatures(NodeId id,
                                              std::vector<float> features);

 private:
  struct Vertex {
    int64_t row = -1;
    std::vector<std::size_t> in;
    std::vector<std::size_t> out;
  };

  void Link(std::size_t row);
  /// Row of the (src, dst) edge, or edges_.size().
  std::size_t FindEdge(NodeId src, NodeId dst) const;

  std::vector<NodeRecord> nodes_;
  std::vector<EdgeRecord> edges_;
  std::unordered_map<NodeId, Vertex> vertex_of_;
};

}  // namespace agl::flat
