#include "flat/incremental.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "flat/state.h"
#include "subgraph/graph_feature.h"

namespace agl::flat {
namespace {

bool IsTargetNode(const GraphFlatConfig& config, const NodeRecord& n) {
  return config.targets == GraphFlatConfig::Targets::kAllNodes ||
         n.label >= 0 || !n.multilabel.empty();
}

// The hub re-index pass force-samples keys above the threshold; it must
// stay dormant in both the cold reference and the pruned re-run. Per-key
// sampleable multiplicity is bounded by the in-degree.
agl::Status CheckNotHub(const GraphFlatConfig& config,
                        const TableGraph& graph, NodeId id) {
  if (config.hub_threshold > 0 &&
      static_cast<int64_t>(
          graph.Adjacent(id, TableGraph::Direction::kIn).size()) >
          config.hub_threshold) {
    return agl::Status::FailedPrecondition(
        "MaintainedDataset: node " + std::to_string(id) +
        " exceeds hub_threshold; hub re-indexing samples, so the "
        "incremental path cannot reproduce the cold run");
  }
  return agl::Status::OK();
}

}  // namespace

agl::Result<MaintainedDataset> MaintainedDataset::Open(
    const GraphFlatConfig& config, const TableGraph& graph,
    mr::LocalDfs* dfs, std::string dataset) {
  AGL_RETURN_IF_ERROR(config.Validate());
  if (graph.nodes().empty()) {
    return agl::Status::InvalidArgument(
        "MaintainedDataset: empty node table");
  }
  if (dfs == nullptr) {
    return agl::Status::InvalidArgument("MaintainedDataset: null dfs");
  }
  if (config.sampler.strategy != sampling::Strategy::kNone) {
    return agl::Status::FailedPrecondition(
        "MaintainedDataset: incremental re-flatten requires sampling 'none' "
        "(a sampled pipeline is not byte-reproducible on a pruned graph)");
  }
  MaintainedDataset maintained(config, dfs, std::move(dataset));
  AGL_RETURN_IF_ERROR(maintained.Load(graph));
  return maintained;
}

agl::Status MaintainedDataset::Load(const TableGraph& graph) {
  if (!dfs_->DatasetExists(dataset_)) {
    return agl::Status::FailedPrecondition(
        "MaintainedDataset: dataset " + dataset_ +
        " does not exist; run full GraphFlat first");
  }
  // A re-publish writes the config's part layout; a dataset stored in
  // another one would silently change shape on the first dirty batch.
  AGL_ASSIGN_OR_RETURN(const std::vector<std::string> parts,
                       dfs_->ListParts(dataset_));
  const std::size_t want_parts =
      static_cast<std::size_t>(std::max(1, config_.num_shards)) *
      static_cast<std::size_t>(config_.output_parts);
  if (parts.size() != want_parts) {
    return agl::Status::FailedPrecondition(
        "MaintainedDataset: dataset " + dataset_ + " has " +
        std::to_string(parts.size()) + " parts but the GraphFlat config " +
        "writes " + std::to_string(want_parts) +
        " (num_shards x output_parts); match its layout");
  }
  for (const EdgeRecord& e : graph.edges()) {
    AGL_RETURN_IF_ERROR(CheckNotHub(config_, graph, e.dst));
  }
  // The stored target set must match the current one exactly (the
  // supported mutations never change it).
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> records,
                       dfs_->ReadDataset(dataset_));
  std::unordered_map<NodeId, std::string> payload_of;
  payload_of.reserve(records.size());
  for (std::string& bytes : records) {
    AGL_ASSIGN_OR_RETURN(subgraph::GraphFeature gf,
                         subgraph::GraphFeature::Parse(bytes));
    payload_of[gf.target_id] = std::move(bytes);
  }
  std::size_t targets = 0;
  for (const NodeRecord& n : graph.nodes()) {
    if (!IsTargetNode(config_, n)) continue;
    ++targets;
    if (payload_of.find(n.id) == payload_of.end()) {
      return agl::Status::FailedPrecondition(
          "MaintainedDataset: dataset is missing target " +
          std::to_string(n.id) + "; run full GraphFlat");
    }
  }
  if (payload_of.size() != targets) {
    return agl::Status::FailedPrecondition(
        "MaintainedDataset: dataset stores " +
        std::to_string(payload_of.size()) + " targets but the tables have " +
        std::to_string(targets) + "; run full GraphFlat");
  }
  payload_of_ = std::move(payload_of);
  loaded_ = true;
  return agl::Status::OK();
}

agl::Status MaintainedDataset::Update(const TableGraph& graph,
                                      const std::vector<NodeId>& changed,
                                      ReflattenStats* stats) {
  pending_.insert(pending_.end(), changed.begin(), changed.end());
  std::unordered_set<NodeId> dirty;
  const agl::Status status = [&]() -> agl::Status {
    if (loaded_) {
      // The last batch left no hub, and only an add-edge raises an
      // in-degree — at its dst, which is a changed node.
      for (NodeId id : changed) {
        AGL_RETURN_IF_ERROR(CheckNotHub(config_, graph, id));
      }
    } else {
      AGL_RETURN_IF_ERROR(Load(graph));
    }
    std::vector<std::pair<NodeId, int>> seeds;
    seeds.reserve(pending_.size());
    for (NodeId id : pending_) seeds.emplace_back(id, 0);
    for (const auto& entry :
         graph.Levels(seeds, TableGraph::Direction::kOut, config_.hops)) {
      if (payload_of_.count(entry.first) > 0) dirty.insert(entry.first);
    }
    // Nothing stored depends on the changed nodes: the dataset is already
    // byte-identical to a cold run.
    if (dirty.empty()) return agl::Status::OK();
    return Reflatten(graph, dirty);
  }();
  if (!status.ok()) {
    payload_of_.clear();
    loaded_ = false;
    std::sort(pending_.begin(), pending_.end());
    pending_.erase(std::unique(pending_.begin(), pending_.end()),
                   pending_.end());
    return status;
  }
  pending_.clear();
  if (stats != nullptr) {
    stats->dirty_targets = static_cast<int64_t>(dirty.size());
    stats->published = !dirty.empty();
  }
  return agl::Status::OK();
}

agl::Status MaintainedDataset::Reflatten(
    const TableGraph& graph, const std::unordered_set<NodeId>& dirty) {
  // K-hop in-closure of the dirty targets. Keeping every edge whose dst is
  // in the closure preserves each kept node's complete in-edge set, which
  // is what makes the dirty targets' re-flattened states exact: a target's
  // final state is the union of the round-0 infos of its <=K in-hop
  // sources, and every node on such a path is itself in the closure.
  std::vector<std::pair<NodeId, int>> seeds;
  seeds.reserve(dirty.size());
  for (NodeId t : dirty) seeds.emplace_back(t, 0);
  const std::unordered_map<NodeId, int> kept =
      graph.Levels(seeds, TableGraph::Direction::kIn, config_.hops);
  // An edge whose src falls outside the closure is kept anyway: the
  // pipeline handles structure-only endpoints, and the src's own info can
  // never reach a dirty target within K rounds.
  const auto [pruned_nodes, pruned_edges] =
      graph.Slice(kept, /*src_reached=*/false);

  // New payloads go straight into payload_of_: a failure below makes
  // Update drop all of it, so they outlive the batch only once published.
  const std::vector<NodeRecord>& nodes = graph.nodes();
  const std::vector<EdgeRecord>& edges = graph.edges();
  if (pruned_edges.empty() && !edges.empty()) {
    // Every dirty target is isolated within K hops, but the cold pipeline
    // would still stamp its zero-row edge tensor with the table-wide edge
    // feature width — which a pruned run couldn't infer from an empty edge
    // list. Build the single-node features directly at the full widths.
    const int64_t node_dim =
        static_cast<int64_t>(nodes[0].features.size());
    const int64_t edge_dim =
        static_cast<int64_t>(edges[0].features.size());
    for (NodeId t : dirty) {
      SubgraphState state(t);
      state.AddNode(nodes[graph.NodeRow(t)]);
      AGL_ASSIGN_OR_RETURN(subgraph::GraphFeature gf,
                           state.ToGraphFeature(node_dim, edge_dim));
      payload_of_[t] = gf.Serialize();
    }
  } else {
    // Re-run the pipeline on the pruned subgraph. Single-shard is enough:
    // output bytes are shard-count-invariant (the sharding_test property),
    // and the pruned graph is the small one.
    GraphFlatConfig sub = config_;
    sub.num_shards = 1;
    AGL_ASSIGN_OR_RETURN(std::vector<subgraph::GraphFeature> features,
                         RunGraphFlatInMemory(sub, pruned_nodes,
                                              pruned_edges));
    std::size_t replaced = 0;
    for (const subgraph::GraphFeature& gf : features) {
      if (dirty.count(gf.target_id) == 0) continue;
      payload_of_[gf.target_id] = gf.Serialize();
      ++replaced;
    }
    if (replaced != dirty.size()) {
      return agl::Status::Internal(
          "MaintainedDataset: pruned re-run produced " +
          std::to_string(replaced) + " of " +
          std::to_string(dirty.size()) + " dirty features");
    }
  }

  return StoreFeaturePayloads(
      config_, {payload_of_.begin(), payload_of_.end()}, dfs_, dataset_);
}

}  // namespace agl::flat
