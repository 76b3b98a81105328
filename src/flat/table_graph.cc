#include "flat/table_graph.h"

#include <algorithm>
#include <string>

namespace agl::flat {
namespace {

std::string EdgeName(NodeId src, NodeId dst) {
  return "edge " + std::to_string(src) + "->" + std::to_string(dst);
}

/// Removes one occurrence of `row` from `list` (order is not kept).
void Unlink(std::vector<std::size_t>* list, std::size_t row) {
  *std::find(list->begin(), list->end(), row) = list->back();
  list->pop_back();
}

}  // namespace

TableGraph::TableGraph(std::vector<NodeRecord> nodes,
                       std::vector<EdgeRecord> edges)
    : nodes_(std::move(nodes)), edges_(std::move(edges)) {
  vertex_of_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Vertex& v = vertex_of_[nodes_[i].id];
    if (v.row < 0) v.row = static_cast<int64_t>(i);
  }
  for (std::size_t r = 0; r < edges_.size(); ++r) Link(r);
}

void TableGraph::Link(std::size_t row) {
  vertex_of_[edges_[row].src].out.push_back(row);
  vertex_of_[edges_[row].dst].in.push_back(row);
}

void TableGraph::Release(std::vector<NodeRecord>* nodes,
                         std::vector<EdgeRecord>* edges) && {
  *nodes = std::move(nodes_);
  *edges = std::move(edges_);
}

int64_t TableGraph::NodeRow(NodeId id) const {
  auto it = vertex_of_.find(id);
  return it == vertex_of_.end() ? -1 : it->second.row;
}

const std::vector<std::size_t>& TableGraph::Adjacent(NodeId id,
                                                     Direction dir) const {
  static const std::vector<std::size_t> kNone;
  auto it = vertex_of_.find(id);
  if (it == vertex_of_.end()) return kNone;
  return dir == Direction::kIn ? it->second.in : it->second.out;
}

std::size_t TableGraph::FindEdge(NodeId src, NodeId dst) const {
  for (std::size_t r : Adjacent(src, Direction::kOut)) {
    if (edges_[r].dst == dst) return r;
  }
  return edges_.size();
}

std::unordered_map<NodeId, int> TableGraph::Levels(
    const std::vector<std::pair<NodeId, int>>& seeds, Direction dir,
    int max_level) const {
  std::unordered_map<NodeId, int> level;
  if (max_level < 0) return level;
  level.reserve(seeds.size());
  // Bases and hops are small integers, so expanding one bucket per level
  // in order is exact (a unit-weight Dijkstra).
  std::vector<std::vector<NodeId>> bucket(
      static_cast<std::size_t>(max_level) + 1);
  auto reach = [&](NodeId id, int l) {
    auto [it, inserted] = level.try_emplace(id, l);
    if (inserted || l < it->second) {
      it->second = l;
      bucket[l].push_back(id);
    }
  };
  for (const auto& [id, base] : seeds) {
    if (base >= 0 && base <= max_level) reach(id, base);
  }
  for (int l = 0; l < max_level; ++l) {
    for (std::size_t i = 0; i < bucket[l].size(); ++i) {
      const NodeId v = bucket[l][i];
      if (level.at(v) != l) continue;  // lowered by a later seed
      for (std::size_t r : Adjacent(v, dir)) {
        reach(dir == Direction::kIn ? edges_[r].src : edges_[r].dst, l + 1);
      }
    }
  }
  return level;
}

std::pair<std::vector<NodeRecord>, std::vector<EdgeRecord>> TableGraph::Slice(
    const std::unordered_map<NodeId, int>& reached, bool src_reached) const {
  std::vector<std::size_t> node_rows;
  std::vector<std::size_t> edge_rows;
  for (const auto& entry : reached) {
    auto it = vertex_of_.find(entry.first);
    if (it == vertex_of_.end()) continue;
    const Vertex& v = it->second;
    if (v.row >= 0) node_rows.push_back(static_cast<std::size_t>(v.row));
    for (std::size_t r : v.in) {
      if (!src_reached || reached.count(edges_[r].src) > 0) {
        edge_rows.push_back(r);
      }
    }
  }
  std::sort(node_rows.begin(), node_rows.end());
  std::sort(edge_rows.begin(), edge_rows.end());
  std::pair<std::vector<NodeRecord>, std::vector<EdgeRecord>> out;
  out.first.reserve(node_rows.size());
  for (std::size_t r : node_rows) out.first.push_back(nodes_[r]);
  out.second.reserve(edge_rows.size());
  for (std::size_t r : edge_rows) out.second.push_back(edges_[r]);
  return out;
}

agl::Status TableGraph::AddEdge(EdgeRecord edge) {
  if (NodeRow(edge.src) < 0 || NodeRow(edge.dst) < 0) {
    return agl::Status::NotFound(EdgeName(edge.src, edge.dst) +
                                 ": endpoint not in the node table");
  }
  if (FindEdge(edge.src, edge.dst) != edges_.size()) {
    return agl::Status::AlreadyExists(EdgeName(edge.src, edge.dst) +
                                      " already present");
  }
  if (!edges_.empty() && edge.features.size() != edges_[0].features.size()) {
    return agl::Status::InvalidArgument(
        "edge feature width " + std::to_string(edge.features.size()) +
        " != table width " + std::to_string(edges_[0].features.size()));
  }
  InsertEdge(std::move(edge));
  return agl::Status::OK();
}

void TableGraph::InsertEdge(EdgeRecord edge) {
  edges_.push_back(std::move(edge));
  Link(edges_.size() - 1);
}

agl::Result<EdgeRecord> TableGraph::RemoveEdge(NodeId src, NodeId dst) {
  const std::size_t row = FindEdge(src, dst);
  if (row == edges_.size()) {
    return agl::Status::NotFound(EdgeName(src, dst) + " not present");
  }
  Unlink(&vertex_of_[src].out, row);
  Unlink(&vertex_of_[dst].in, row);
  EdgeRecord removed = std::move(edges_[row]);
  // Swap-remove: the last edge takes the freed row.
  const std::size_t last = edges_.size() - 1;
  if (row != last) {
    edges_[row] = std::move(edges_[last]);
    std::vector<std::size_t>& out = vertex_of_[edges_[row].src].out;
    std::vector<std::size_t>& in = vertex_of_[edges_[row].dst].in;
    *std::find(out.begin(), out.end(), last) = row;
    *std::find(in.begin(), in.end(), last) = row;
  }
  edges_.pop_back();
  return removed;
}

agl::Result<std::vector<float>> TableGraph::SetFeatures(
    NodeId id, std::vector<float> features) {
  const int64_t row = NodeRow(id);
  if (row < 0) {
    return agl::Status::NotFound("node " + std::to_string(id) +
                                 " not in the node table");
  }
  std::vector<float>& current = nodes_[row].features;
  if (features.size() != current.size()) {
    return agl::Status::InvalidArgument(
        "feature width " + std::to_string(features.size()) +
        " != table width " + std::to_string(current.size()));
  }
  current.swap(features);
  return features;
}

}  // namespace agl::flat
