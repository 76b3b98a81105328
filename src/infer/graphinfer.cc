#include "infer/graphinfer.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "flat/shard.h"
#include "flat/table_graph.h"
#include "flat/table_map.h"
#include "infer/embedding_cache.h"
#include "infer/segmentation.h"
#include "io/codec.h"
#include "tensor/sparse.h"

namespace agl::infer {
namespace {

using flat::EdgeRecord;
using flat::NodeId;
using flat::NodeRecord;
using flat::Tagged;
using Direction = flat::TableGraph::Direction;

// Record tags.
constexpr char kTagEmb = 'H';       // self embedding
constexpr char kTagInStub = 'I';    // in-edge: (src, normalized weight)
constexpr char kTagOutEdge = 'O';   // out-edge: (dst)
constexpr char kTagNeighbor = 'P';  // propagated neighbor embedding
constexpr char kTagScore = 'F';     // final predicted scores

std::string EncodeEmbedding(NodeId id, const std::vector<float>& h) {
  io::BufferWriter w;
  w.PutVarint64(id);
  w.PutFloatArray(h);
  return w.Release();
}

agl::Status DecodeEmbedding(const std::string& bytes, NodeId* id,
                            std::vector<float>* h) {
  io::BufferReader r(bytes);
  AGL_RETURN_IF_ERROR(r.GetVarint64(id));
  return r.GetFloatArray(h);
}

std::string EncodeStub(NodeId src, float weight) {
  io::BufferWriter w;
  w.PutVarint64(src);
  w.PutFloat(weight);
  return w.Release();
}

agl::Status DecodeStub(const std::string& bytes, NodeId* src, float* weight) {
  io::BufferReader r(bytes);
  AGL_RETURN_IF_ERROR(r.GetVarint64(src));
  return r.GetFloat(weight);
}

/// The (node, round) pairs one slice's pass reads. The walk starts at the
/// targets' round-K pairs and follows in-edges backwards: a pair the store
/// holds is fed in as it is and not expanded; any other pair is evaluated
/// and reads its node's and every in-neighbour's value one round earlier.
/// So a node at in-depth d is read only at rounds <= K - d, the values the
/// targets depend on (Theorem 1), and round 0 is the raw features.
struct Demand {
  explicit Demand(int num_layers)
      : evaluated(num_layers + 2), stored(num_layers + 1) {}

  /// evaluated[r], r = 1..K: the nodes evaluated at round r. Entries 0 and
  /// K + 1 stay empty, so round r - 1 and r + 1 are always valid indices.
  std::vector<std::unordered_set<NodeId>> evaluated;
  /// stored[r], r = 1..K: the values the store held, each looked up once.
  std::vector<std::unordered_map<NodeId, std::vector<float>>> stored;
  /// Every node whose value some round reads (the values are unused).
  std::unordered_map<NodeId, int> reached;
};

/// The demand of `targets`; a null `store` holds nothing.
Demand Walk(const flat::TableGraph& graph, const std::vector<NodeId>& targets,
            int num_layers, EmbeddingStore* store, uint64_t model_version) {
  Demand demand(num_layers);
  // A target outside the node table has no features and gets no score.
  std::vector<NodeId> need;
  for (NodeId t : targets) {
    if (graph.NodeRow(t) >= 0) need.push_back(t);
  }
  for (int round = num_layers; round >= 0; --round) {
    std::vector<NodeId> next;
    std::unordered_set<NodeId> seen;
    auto read = [&](NodeId id) {
      if (seen.insert(id).second) next.push_back(id);
    };
    for (NodeId v : need) {
      demand.reached.emplace(v, round);
      if (round == 0) continue;
      std::vector<float> h;
      if (store != nullptr && store->Lookup({v, round, model_version}, &h)) {
        demand.stored[round].emplace(v, std::move(h));
        continue;
      }
      demand.evaluated[round].insert(v);
      read(v);
      for (std::size_t e : graph.Adjacent(v, Direction::kIn)) {
        read(graph.edges()[e].src);
      }
    }
    need = std::move(next);
  }
  return demand;
}

/// The normalised in-edge row of every node, src ids in column order. The
/// adjacency is normalised exactly as the trainer does it (our stand-in for
/// the paper's degree-joining preprocessing), over `nodes` and `edges` in
/// table order, self-loops included where the model adds them.
using InRows =
    std::unordered_map<NodeId, std::vector<std::pair<NodeId, float>>>;

agl::Result<InRows> NormalizedInRows(const gnn::ModelConfig& model,
                                     const std::vector<NodeRecord>& nodes,
                                     const std::vector<EdgeRecord>& edges) {
  std::unordered_map<NodeId, int64_t> local_of;
  local_of.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    local_of.emplace(nodes[i].id, static_cast<int64_t>(i));
  }
  std::vector<tensor::CooEntry> entries;
  entries.reserve(edges.size());
  for (const EdgeRecord& e : edges) {
    auto sit = local_of.find(e.src);
    auto dit = local_of.find(e.dst);
    if (sit == local_of.end() || dit == local_of.end()) {
      return agl::Status::NotFound("edge references missing node");
    }
    entries.push_back({dit->second, sit->second, e.weight});
  }
  const tensor::SparseMatrix norm = gnn::GnnModel(model).NormalizeAdjacency(
      tensor::SparseMatrix::FromCoo(static_cast<int64_t>(nodes.size()),
                                    static_cast<int64_t>(nodes.size()),
                                    std::move(entries)));
  InRows rows;
  rows.reserve(nodes.size());
  for (int64_t dst = 0; dst < norm.rows(); ++dst) {
    auto& row = rows[nodes[dst].id];
    for (int64_t p = norm.row_ptr()[dst]; p < norm.row_ptr()[dst + 1]; ++p) {
      row.emplace_back(nodes[norm.col_idx()[p]].id, norm.values()[p]);
    }
  }
  return rows;
}

/// What every reduce round reads.
struct RoundContext {
  int round = 0;  // 1..K: applies layer slice round - 1
  int num_layers = 0;
  gnn::ModelConfig model;
  const ModelSlice* slice = nullptr;
  /// The nodes evaluated next round: the ones that read their own value.
  const std::unordered_set<NodeId>* next = nullptr;
  std::atomic<int64_t>* embedding_evals = nullptr;
  /// Receives every evaluated value; nullptr when the pass bypasses it.
  EmbeddingStore* store = nullptr;
  uint64_t model_version = 0;
};

/// One GraphInfer Reduce round over the nodes evaluated at it: joins the
/// arrived in-neighbour values with the in-edge stubs, applies the layer
/// slice, and propagates the new value along the out-edges the next round
/// reads. The last layer round applies the prediction slice in place.
class InferReducer : public mr::Reducer {
 public:
  explicit InferReducer(const RoundContext& ctx) : ctx_(ctx) {}

  agl::Status Reduce(const std::string& key,
                     const std::vector<std::string>& values,
                     mr::Emitter* out) override {
    std::vector<float> self_emb;
    bool have_self = false;
    std::vector<std::pair<NodeId, float>> in_stubs;
    std::vector<std::string> out_edges;
    std::vector<std::pair<NodeId, std::vector<float>>> arrived;

    for (const std::string& v : values) {
      if (v.empty()) return agl::Status::Corruption("empty infer value");
      const std::string payload = v.substr(1);
      switch (v[0]) {
        case kTagEmb: {
          NodeId id;
          AGL_RETURN_IF_ERROR(DecodeEmbedding(payload, &id, &self_emb));
          have_self = true;
          break;
        }
        case kTagInStub: {
          NodeId src;
          float w;
          AGL_RETURN_IF_ERROR(DecodeStub(payload, &src, &w));
          in_stubs.emplace_back(src, w);
          break;
        }
        case kTagOutEdge:
          out_edges.push_back(payload);
          break;
        case kTagNeighbor: {
          NodeId src;
          std::vector<float> h;
          AGL_RETURN_IF_ERROR(DecodeEmbedding(payload, &src, &h));
          arrived.emplace_back(src, std::move(h));
          break;
        }
        default:
          return agl::Status::Corruption("unknown infer tag");
      }
    }
    if (!have_self) {
      return agl::Status::Corruption("GraphInfer: node " + key +
                                     " has no round-" +
                                     std::to_string(ctx_.round - 1) +
                                     " value");
    }
    const NodeId self_id = static_cast<NodeId>(std::stoull(key));

    // Join arrived neighbor embeddings with the normalized in-edge weights,
    // in the canonical stub order; the self-loop stub (src == self) uses the
    // self embedding.
    std::unordered_map<NodeId, const std::vector<float>*> by_src;
    by_src.reserve(arrived.size());
    for (const auto& [aid, h] : arrived) by_src.emplace(aid, &h);
    std::vector<NeighborEmbedding> neighbors;
    neighbors.reserve(in_stubs.size());
    for (const auto& [src, w] : in_stubs) {
      if (src == self_id) {
        neighbors.push_back({src, w, self_emb});
        continue;
      }
      auto it = by_src.find(src);
      if (it != by_src.end()) neighbors.push_back({src, w, *it->second});
    }
    AGL_ASSIGN_OR_RETURN(
        const std::vector<float> new_emb,
        ApplySlice(ctx_.model, *ctx_.slice, self_emb, neighbors));
    ctx_.embedding_evals->fetch_add(1, std::memory_order_relaxed);
    if (ctx_.store != nullptr) {
      ctx_.store->Insert({self_id, ctx_.round, ctx_.model_version}, new_emb);
    }

    if (ctx_.round == ctx_.num_layers) {
      // Only targets are evaluated at round K: output their scores.
      out->Emit(key, Tagged(kTagScore,
                            EncodeEmbedding(self_id, ApplyPredictionSlice(
                                                         ctx_.model, new_emb))));
      return agl::Status::OK();
    }
    const std::string emb_bytes = EncodeEmbedding(self_id, new_emb);
    for (const std::string& payload : out_edges) {
      io::BufferReader r(payload);
      uint64_t dst;
      AGL_RETURN_IF_ERROR(r.GetVarint64(&dst));
      out->Emit(std::to_string(dst), Tagged(kTagNeighbor, emb_bytes));
    }
    if (ctx_.next->count(self_id) > 0) {
      out->Emit(key, Tagged(kTagEmb, emb_bytes));
    }
    return agl::Status::OK();
  }

 private:
  RoundContext ctx_;
};

/// The records the pass feeds into round `round` from outside the previous
/// round's reduce: the in-edge stubs of the nodes evaluated now, the
/// round - 1 values no reducer produced (raw features at round 1, stored
/// values later) sent to the nodes that read them, and the out-edges along
/// which this round's values reach the nodes evaluated next round.
std::vector<mr::KeyValue> FedRecords(int round, const flat::TableGraph& graph,
                                     const Demand& demand,
                                     const InRows& rows) {
  const std::unordered_set<NodeId>& now = demand.evaluated[round];
  const std::unordered_set<NodeId>& before = demand.evaluated[round - 1];
  std::unordered_map<NodeId, std::string> encoded;
  auto fed = [&](NodeId id) -> const std::string& {
    auto [it, inserted] = encoded.try_emplace(id);
    if (inserted) {
      it->second = EncodeEmbedding(
          id, round == 1 ? graph.nodes()[graph.NodeRow(id)].features
                         : demand.stored[round - 1].at(id));
    }
    return it->second;
  };
  std::vector<mr::KeyValue> records;
  for (NodeId v : now) {
    const std::string key = std::to_string(v);
    if (before.count(v) == 0) records.push_back({key, Tagged(kTagEmb, fed(v))});
    for (const auto& [src, w] : rows.at(v)) {
      records.push_back({key, Tagged(kTagInStub, EncodeStub(src, w))});
      if (src != v && before.count(src) == 0) {
        records.push_back({key, Tagged(kTagNeighbor, fed(src))});
      }
    }
  }
  for (NodeId dst : demand.evaluated[round + 1]) {
    for (const auto& [src, w] : rows.at(dst)) {
      if (src == dst || now.count(src) == 0) continue;
      io::BufferWriter payload;
      payload.PutVarint64(dst);
      records.push_back(
          {std::to_string(src), Tagged(kTagOutEdge, payload.Release())});
    }
  }
  return records;
}

/// One target slice's pass: walks its demand, scores the targets whose
/// round-K value is stored directly, evaluates the rest over the MapReduce
/// rounds, and appends the scores and the pass's costs to `out`. A pass
/// whose targets are all stored runs no round.
agl::Status RunSlice(const InferConfig& config,
                     const std::vector<ModelSlice>& slices,
                     uint64_t model_version, const flat::TableGraph& graph,
                     const std::vector<NodeId>& targets, EmbeddingStore* store,
                     InferResult* out) {
  const int num_layers = config.model.num_layers;
  // GCN's symmetric normalization folds in *out*-degrees, which the K-hop
  // cut changes. A GCN slice therefore normalizes over its whole cut, and a
  // cut that drops part of the graph yields values of its own: the store
  // stays out of that pass. Every other model normalizes over in-edges
  // only, which each evaluated node keeps in full, so its values are the
  // whole graph's.
  std::pair<std::vector<NodeRecord>, std::vector<EdgeRecord>> cut;
  const bool gcn = config.model.type == gnn::ModelType::kGcn;
  if (gcn) {
    std::vector<std::pair<NodeId, int>> seeds;
    for (NodeId t : targets) seeds.emplace_back(t, 0);
    cut = graph.Slice(graph.Levels(seeds, Direction::kIn, num_layers),
                      /*src_reached=*/true);
    if (cut.first.size() != graph.nodes().size() ||
        cut.second.size() != graph.edges().size()) {
      store = nullptr;
    }
  }
  const Demand demand =
      Walk(graph, targets, num_layers, store, model_version);
  for (const auto& [id, h] : demand.stored[num_layers]) {
    out->scores.emplace_back(id, ApplyPredictionSlice(config.model, h));
  }
  if (demand.evaluated[num_layers].empty()) return agl::Status::OK();

  if (!gcn) cut = graph.Slice(demand.reached, /*src_reached=*/true);
  AGL_RETURN_IF_ERROR(CheckFeatureWidths(cut.first, config.model.in_dim));
  AGL_ASSIGN_OR_RETURN(
      const InRows rows,
      NormalizedInRows(config.model, cut.first, cut.second));

  std::atomic<int64_t> embedding_evals{0};
  RoundContext ctx;
  ctx.num_layers = num_layers;
  ctx.model = config.model;
  ctx.embedding_evals = &embedding_evals;
  ctx.store = store;
  ctx.model_version = model_version;
  // Sharded execution mirrors GraphFlat: records live on their key's home
  // shard, one reduce job runs per shard per round, and propagated
  // neighbor embeddings are exchanged across the partition between rounds.
  // num_shards == 1 degenerates to the single global job.
  const int num_shards = std::max(1, config.num_shards);
  flat::ShardRouter router{flat::ShardPlan(num_shards)};
  std::vector<std::vector<mr::KeyValue>> shard_records;
  std::vector<mr::JobStats> shard_stats(num_shards);
  // The evaluated rounds form a suffix: a pair is evaluated only for a pair
  // evaluated one round later.
  for (int round = 1; round <= num_layers; ++round) {
    if (demand.evaluated[round].empty()) continue;
    Stopwatch round_watch;
    shard_records.push_back(FedRecords(round, graph, demand, rows));
    shard_records = router.Exchange(std::move(shard_records));
    int64_t live_bytes = 0;
    for (const auto& recs : shard_records) {
      for (const mr::KeyValue& kv : recs) {
        live_bytes += static_cast<int64_t>(kv.key.size() + kv.value.size());
      }
    }
    ctx.round = round;
    ctx.slice = &slices[round - 1];
    ctx.next = &demand.evaluated[round + 1];
    const RoundContext round_ctx = ctx;
    AGL_RETURN_IF_ERROR(flat::ParallelOverShards(num_shards, [&](int s) {
      AGL_ASSIGN_OR_RETURN(
          shard_records[s],
          mr::RunReducePhase(config.job, std::move(shard_records[s]),
                             [round_ctx] {
                               return std::make_unique<InferReducer>(round_ctx);
                             },
                             &shard_stats[s]));
      return agl::Status::OK();
    }));
    out->costs.memory_gb_minutes +=
        static_cast<double>(live_bytes) / (1024.0 * 1024.0 * 1024.0) *
        (round_watch.Seconds() / 60.0);
  }

  for (const auto& recs : shard_records) {
    for (const mr::KeyValue& kv : recs) {
      NodeId id;
      std::vector<float> scores;
      AGL_RETURN_IF_ERROR(DecodeEmbedding(kv.value.substr(1), &id, &scores));
      out->scores.emplace_back(id, std::move(scores));
    }
  }
  out->costs.embedding_evaluations += embedding_evals.load();
  return agl::Status::OK();
}

}  // namespace

agl::Status InferConfig::Validate() const {
  if (model.num_layers < 1) {
    return agl::Status::InvalidArgument(
        "InferConfig: model.num_layers must be >= 1");
  }
  if (model.in_dim <= 0 || model.hidden_dim <= 0 || model.out_dim <= 0) {
    return agl::Status::InvalidArgument(
        "InferConfig: model dimensions must be positive");
  }
  if (num_shards < 1) {
    return agl::Status::InvalidArgument(
        "InferConfig: num_shards must be >= 1");
  }
  if (batch_slices < 1) {
    return agl::Status::InvalidArgument(
        "InferConfig: batch_slices must be >= 1");
  }
  if (!cache_spill_path.empty() && cache_budget_bytes == 0) {
    return agl::Status::InvalidArgument(
        "InferConfig: cache_spill_path needs an enabled cache "
        "(cache_budget_bytes != 0)");
  }
  return agl::Status::OK();
}

agl::Status CheckFeatureWidths(const std::vector<NodeRecord>& nodes,
                               int64_t in_dim) {
  for (const NodeRecord& n : nodes) {
    if (static_cast<int64_t>(n.features.size()) != in_dim) {
      return agl::Status::InvalidArgument(
          "GraphInfer: node " + std::to_string(n.id) + " has " +
          std::to_string(n.features.size()) +
          " features but the model expects in_dim=" + std::to_string(in_dim));
    }
  }
  return agl::Status::OK();
}

std::vector<std::vector<NodeId>> PartitionTargets(
    const std::vector<NodeId>& targets, int batch_slices) {
  std::vector<NodeId> unique;
  unique.reserve(targets.size());
  std::unordered_set<NodeId> seen;
  seen.reserve(targets.size());
  for (NodeId t : targets) {
    if (seen.insert(t).second) unique.push_back(t);
  }
  std::vector<std::vector<NodeId>> slices;
  if (unique.empty()) return slices;
  const std::size_t n = unique.size();
  const std::size_t count =
      std::min<std::size_t>(n, static_cast<std::size_t>(
                                   std::max(1, batch_slices)));
  slices.reserve(count);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t size = n / count + (s < n % count ? 1 : 0);
    slices.emplace_back(unique.begin() + begin, unique.begin() + begin + size);
    begin += size;
  }
  return slices;
}

uint64_t StateFingerprint(
    const std::map<std::string, tensor::Tensor>& state) {
  io::BufferWriter w;
  for (const auto& [key, value] : state) {
    w.PutString(key);
    w.PutVarint64(static_cast<uint64_t>(value.rows()));
    w.PutVarint64(static_cast<uint64_t>(value.cols()));
    w.PutBytes(value.data(),
               static_cast<std::size_t>(value.rows() * value.cols()) *
                   sizeof(float));
  }
  return agl::Fnv1aHash(w.data());
}

agl::Result<InferResult> RunGraphInfer(
    const InferConfig& config,
    const std::map<std::string, tensor::Tensor>& state,
    const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges) {
  AGL_ASSIGN_OR_RETURN(std::vector<ModelSlice> slices,
                       SegmentModel(state, config.model));
  InferConfig single = config;
  single.batch_slices = 1;
  EmbeddingCache no_store(0);
  return RunGraphInferBatched(single, slices, /*model_version=*/0,
                              flat::TableGraph(nodes, edges), &no_store);
}

agl::Result<InferResult> RunGraphInferBatched(
    const InferConfig& config,
    const std::map<std::string, tensor::Tensor>& state,
    const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges) {
  AGL_ASSIGN_OR_RETURN(std::vector<ModelSlice> slices,
                       SegmentModel(state, config.model));
  EmbeddingCache cache(config.cache_budget_bytes);
  if (cache.enabled() && !config.cache_spill_path.empty()) {
    AGL_RETURN_IF_ERROR(cache.EnableSpill(config.cache_spill_path));
  }
  return RunGraphInferBatched(config, slices, StateFingerprint(state),
                              flat::TableGraph(nodes, edges), &cache);
}

agl::Result<InferResult> RunGraphInferBatched(
    const InferConfig& config, const std::vector<ModelSlice>& slices,
    uint64_t model_version, const flat::TableGraph& graph,
    EmbeddingStore* store) {
  if (store == nullptr) {
    return agl::Status::InvalidArgument(
        "RunGraphInferBatched: external store must not be null");
  }
  if (slices.size() != static_cast<std::size_t>(config.model.num_layers) + 1) {
    return agl::Status::InvalidArgument(
        "RunGraphInferBatched: " + std::to_string(slices.size()) +
        " model slices for a " + std::to_string(config.model.num_layers) +
        "-layer model");
  }
  const std::vector<NodeRecord>& nodes = graph.nodes();
  if (nodes.empty()) {
    return agl::Status::InvalidArgument("GraphInfer: empty node table");
  }
  Stopwatch watch;
  const double cpu_start = ProcessCpuSeconds();

  std::vector<NodeId> targets = config.target_ids;
  if (targets.empty()) {
    targets.reserve(nodes.size());
    for (const NodeRecord& n : nodes) targets.push_back(n.id);
  }
  const std::vector<std::vector<NodeId>> target_slices =
      PartitionTargets(targets, config.batch_slices);

  // A shared store accumulates counters across calls; report this call's
  // delta so InferCosts keeps its per-run meaning.
  const EmbeddingCacheStats before = store->stats();
  EmbeddingStore* live = store->enabled() ? store : nullptr;

  InferResult out;
  out.num_slices = static_cast<int>(target_slices.size());
  for (const std::vector<NodeId>& slice_targets : target_slices) {
    AGL_RETURN_IF_ERROR(RunSlice(config, slices, model_version, graph,
                                 slice_targets, live, &out));
  }
  std::sort(out.scores.begin(), out.scores.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const EmbeddingCacheStats after = store->stats();
  out.costs.cache_hits = after.hits - before.hits;
  out.costs.cache_misses = after.misses - before.misses;
  out.costs.cache_evictions = after.evictions - before.evictions;
  out.costs.cache_spilled = after.spilled - before.spilled;
  out.costs.cache_spill_hits = after.spill_hits - before.spill_hits;
  out.costs.cache_spill_failures = after.spill_failures - before.spill_failures;
  out.costs.time_seconds = watch.Seconds();
  out.costs.cpu_core_minutes = (ProcessCpuSeconds() - cpu_start) / 60.0;
  return out;
}

}  // namespace agl::infer
