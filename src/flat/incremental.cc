#include "flat/incremental.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "flat/state.h"
#include "subgraph/graph_feature.h"

namespace agl::flat {
namespace {

bool IsTargetNode(const GraphFlatConfig& config, const NodeRecord& n) {
  return config.targets == GraphFlatConfig::Targets::kAllNodes ||
         n.label >= 0 || !n.multilabel.empty();
}

}  // namespace

agl::Status ReflattenDirty(const GraphFlatConfig& config,
                           const TableGraph& graph,
                           const std::vector<NodeId>& changed,
                           mr::LocalDfs* dfs, const std::string& dataset,
                           ReflattenStats* stats) {
  Stopwatch watch;
  const std::vector<NodeRecord>& nodes = graph.nodes();
  const std::vector<EdgeRecord>& edges = graph.edges();
  AGL_RETURN_IF_ERROR(config.Validate());
  if (nodes.empty()) {
    return agl::Status::InvalidArgument("ReflattenDirty: empty node table");
  }
  if (dfs == nullptr) {
    return agl::Status::InvalidArgument("ReflattenDirty: null dfs");
  }
  if (config.sampler.strategy != sampling::Strategy::kNone) {
    return agl::Status::FailedPrecondition(
        "ReflattenDirty: incremental re-flatten requires sampling 'none' "
        "(a sampled pipeline is not byte-reproducible on a pruned graph)");
  }
  // The hub re-index pass force-samples keys above the threshold; it must
  // stay dormant in both the cold reference and the pruned re-run. Per-key
  // sampleable multiplicity is bounded by the in-degree.
  if (config.hub_threshold > 0) {
    for (const EdgeRecord& e : edges) {
      if (static_cast<int64_t>(
              graph.Adjacent(e.dst, TableGraph::Direction::kIn).size()) >
          config.hub_threshold) {
        return agl::Status::FailedPrecondition(
            "ReflattenDirty: node " + std::to_string(e.dst) +
            " exceeds hub_threshold; hub re-indexing samples, so the "
            "incremental path cannot reproduce the cold run");
      }
    }
  }
  if (!dfs->DatasetExists(dataset)) {
    return agl::Status::FailedPrecondition(
        "ReflattenDirty: dataset " + dataset +
        " does not exist; run full GraphFlat first");
  }

  std::unordered_set<NodeId> target_set;
  for (const NodeRecord& n : nodes) {
    if (IsTargetNode(config, n)) target_set.insert(n.id);
  }

  // Load the stored payloads; the stored target set must match the current
  // one exactly (the supported mutations never change it).
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> records,
                       dfs->ReadDataset(dataset));
  std::unordered_map<NodeId, std::string> payload_of;
  payload_of.reserve(records.size());
  for (std::string& bytes : records) {
    AGL_ASSIGN_OR_RETURN(subgraph::GraphFeature gf,
                         subgraph::GraphFeature::Parse(bytes));
    payload_of[gf.target_id] = std::move(bytes);
  }
  if (payload_of.size() != target_set.size()) {
    return agl::Status::FailedPrecondition(
        "ReflattenDirty: dataset stores " +
        std::to_string(payload_of.size()) + " targets but the tables have " +
        std::to_string(target_set.size()) + "; run full GraphFlat");
  }
  for (NodeId t : target_set) {
    if (payload_of.find(t) == payload_of.end()) {
      return agl::Status::FailedPrecondition(
          "ReflattenDirty: dataset is missing target " + std::to_string(t) +
          "; run full GraphFlat");
    }
  }

  std::vector<std::pair<NodeId, int>> seeds;
  for (NodeId id : changed) seeds.emplace_back(id, 0);
  const std::unordered_map<NodeId, int> reached =
      graph.Levels(seeds, TableGraph::Direction::kOut, config.hops);
  std::unordered_set<NodeId> dirty_targets;
  for (const auto& entry : reached) {
    if (target_set.count(entry.first) > 0) dirty_targets.insert(entry.first);
  }
  ReflattenStats local;
  local.candidate_targets = static_cast<int64_t>(reached.size());
  local.dirty_targets = static_cast<int64_t>(dirty_targets.size());
  local.reused_payloads =
      static_cast<int64_t>(target_set.size() - dirty_targets.size());
  if (dirty_targets.empty()) {
    // Nothing stored depends on the mutated nodes: the dataset is already
    // byte-identical to a cold run.
    local.elapsed_seconds = watch.Seconds();
    if (stats != nullptr) *stats = local;
    return agl::Status::OK();
  }

  // K-hop in-closure of the dirty targets. Keeping every edge whose dst is
  // in the closure preserves each kept node's complete in-edge set, which
  // is what makes the dirty targets' re-flattened states exact: a target's
  // final state is the union of the round-0 infos of its <=K in-hop
  // sources, and every node on such a path is itself in the closure.
  seeds.clear();
  for (NodeId t : dirty_targets) seeds.emplace_back(t, 0);
  const std::unordered_map<NodeId, int> kept =
      graph.Levels(seeds, TableGraph::Direction::kIn, config.hops);
  // An edge whose src falls outside the closure is kept anyway: the
  // pipeline handles structure-only endpoints, and the src's own info can
  // never reach a dirty target within K rounds.
  const auto [pruned_nodes, pruned_edges] =
      graph.Slice(kept, /*src_reached=*/false);
  local.pruned_nodes = static_cast<int64_t>(pruned_nodes.size());
  local.pruned_edges = static_cast<int64_t>(pruned_edges.size());

  if (pruned_edges.empty() && !edges.empty()) {
    // Every dirty target is isolated within K hops, but the cold pipeline
    // would still stamp its zero-row edge tensor with the table-wide edge
    // feature width — which a pruned run couldn't infer from an empty edge
    // list. Build the single-node features directly at the full widths.
    const int64_t node_dim =
        static_cast<int64_t>(nodes[0].features.size());
    const int64_t edge_dim =
        static_cast<int64_t>(edges[0].features.size());
    for (NodeId t : dirty_targets) {
      SubgraphState state(t);
      state.AddNode(nodes[graph.NodeRow(t)]);
      AGL_ASSIGN_OR_RETURN(subgraph::GraphFeature gf,
                           state.ToGraphFeature(node_dim, edge_dim));
      payload_of[t] = gf.Serialize();
    }
  } else {
    // Re-run the pipeline on the pruned subgraph. Single-shard is enough:
    // output bytes are shard-count-invariant (the sharding_test property),
    // and the pruned graph is the small one.
    GraphFlatConfig sub = config;
    sub.num_shards = 1;
    AGL_ASSIGN_OR_RETURN(std::vector<subgraph::GraphFeature> features,
                         RunGraphFlatInMemory(sub, pruned_nodes,
                                              pruned_edges));
    std::size_t replaced = 0;
    for (const subgraph::GraphFeature& gf : features) {
      if (dirty_targets.count(gf.target_id) == 0) continue;
      payload_of[gf.target_id] = gf.Serialize();
      ++replaced;
    }
    if (replaced != dirty_targets.size()) {
      return agl::Status::Internal(
          "ReflattenDirty: pruned re-run produced " +
          std::to_string(replaced) + " of " +
          std::to_string(dirty_targets.size()) + " dirty features");
    }
  }

  std::vector<std::pair<NodeId, std::string>> finals;
  finals.reserve(payload_of.size());
  for (auto& [id, bytes] : payload_of) {
    finals.emplace_back(id, std::move(bytes));
  }
  AGL_RETURN_IF_ERROR(
      StoreFeaturePayloads(config, std::move(finals), dfs, dataset));
  local.elapsed_seconds = watch.Seconds();
  if (stats != nullptr) *stats = local;
  return agl::Status::OK();
}

}  // namespace agl::flat
