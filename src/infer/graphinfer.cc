#include "infer/graphinfer.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "flat/shard.h"
#include "flat/table_graph.h"
#include "infer/embedding_cache.h"
#include "infer/segmentation.h"
#include "io/codec.h"
#include "tensor/sparse.h"

namespace agl::infer {
namespace {

using flat::EdgeRecord;
using flat::NodeId;
using flat::NodeRecord;
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

std::string Tagged(char tag, const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 1);
  out.push_back(tag);
  out.append(payload);
  return out;
}

/// What every reduce round reads. The caller of RunInferCore fills in the
/// slices and the cache fields; RunInferCore sets the rest.
struct RoundContext {
  int round = 0;       // 0 = propagation bootstrap; 1..K layer slices;
                       // K+1 = prediction slice
  int num_layers = 0;
  gnn::ModelConfig model;
  const std::vector<ModelSlice>* slices = nullptr;
  std::atomic<int64_t>* embedding_evals = nullptr;

  // Cross-slice embedding store (batched driver only; nullptr otherwise).
  EmbeddingStore* cache = nullptr;
  /// In-BFS depth of each slice-graph node from the slice targets.
  const std::unordered_map<NodeId, int>* depth = nullptr;
  /// True when the slice graph kept the whole input graph (no frontier
  /// truncation): every round of every node is then exact.
  bool cache_all_rounds = false;
  uint64_t model_version = 0;
};

/// One GraphInfer Reduce round. Round 0 only bootstraps propagation (our
/// node/edge tables are not pre-joined; see GraphFlat's round-0 note).
/// Rounds 1..K apply slice k-1; round K+1 applies the prediction slice.
class InferReducer : public mr::Reducer {
 public:
  explicit InferReducer(const RoundContext& ctx) : ctx_(ctx) {}

  agl::Status Reduce(const std::string& key,
                     const std::vector<std::string>& values,
                     mr::Emitter* out) override {
    std::vector<float> self_emb;
    bool have_self = false;
    std::vector<NeighborEmbedding> neighbors;
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
      // Structure-only node (no node-table row): drop.
      return agl::Status::OK();
    }
    const NodeId self_id = static_cast<NodeId>(std::stoull(key));

    std::vector<float> new_emb;
    if (ctx_.round == 0) {
      new_emb = self_emb;  // bootstrap: propagate raw features
    } else if (ctx_.round <= ctx_.num_layers) {
      const bool cacheable = Cacheable(self_id);
      const CacheKey cache_key{self_id, ctx_.round, ctx_.model_version};
      if (cacheable && ctx_.cache->Lookup(cache_key, &new_emb)) {
        // Cross-slice hit: an earlier slice already materialized this
        // segment embedding (possibly via the spill file). Skip the
        // neighbor join and the slice application entirely.
      } else {
        // Join arrived neighbor embeddings with the normalized in-edge
        // weights; the self-loop stub (src == self) uses the self
        // embedding.
        std::unordered_map<NodeId, const std::vector<float>*> by_src;
        by_src.reserve(arrived.size());
        for (const auto& [aid, h] : arrived) by_src.emplace(aid, &h);
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
            new_emb, ApplySlice(ctx_.model, (*ctx_.slices)[ctx_.round - 1],
                                self_emb, neighbors));
        ctx_.embedding_evals->fetch_add(1, std::memory_order_relaxed);
        if (cacheable) ctx_.cache->Insert(cache_key, new_emb);
      }
    } else {
      // Prediction round: output scores, nothing else.
      const std::vector<float> scores =
          ApplyPredictionSlice(ctx_.model, self_emb);
      out->Emit(key, Tagged(kTagScore, EncodeEmbedding(self_id, scores)));
      return agl::Status::OK();
    }

    // Propagate the new embedding along out-edges for the next round and
    // carry the structure forward.
    const bool propagate = ctx_.round < ctx_.num_layers;
    const std::string emb_bytes = EncodeEmbedding(self_id, new_emb);
    if (propagate) {
      for (const std::string& payload : out_edges) {
        io::BufferReader r(payload);
        uint64_t dst;
        AGL_RETURN_IF_ERROR(r.GetVarint64(&dst));
        out->Emit(std::to_string(dst), Tagged(kTagNeighbor, emb_bytes));
      }
      for (const std::string& payload : out_edges) {
        out->Emit(key, Tagged(kTagOutEdge, payload));
      }
      for (const auto& [src, w] : in_stubs) {
        out->Emit(key, Tagged(kTagInStub, EncodeStub(src, w)));
      }
    }
    out->Emit(key, Tagged(kTagEmb, emb_bytes));
    return agl::Status::OK();
  }

 private:
  /// Whether node `id`'s embedding for the current round may be cached and
  /// served from the cache. Requires the value to be *slice-independent*:
  /// a node at in-BFS depth d from the slice targets carries its complete
  /// r-hop in-neighborhood (and hence a bit-exact, slice-invariant round-r
  /// value) only while round + d <= K — beyond that horizon the truncated
  /// frontier makes the locally computed value depend on the slice, so it
  /// is neither stored nor substituted.
  bool Cacheable(NodeId id) const {
    if (ctx_.cache == nullptr || !ctx_.cache->enabled()) return false;
    if (ctx_.cache_all_rounds) return true;
    auto it = ctx_.depth->find(id);
    if (it == ctx_.depth->end()) return false;
    return ctx_.round + it->second <= ctx_.num_layers;
  }

  RoundContext ctx_;
};

/// The MapReduce round schedule over one (possibly pruned) input graph —
/// the body both RunGraphInfer and the batched driver share.
agl::Result<InferResult> RunInferCore(const InferConfig& config,
                                      const std::vector<NodeRecord>& nodes,
                                      const std::vector<EdgeRecord>& edges,
                                      RoundContext ctx) {
  if (nodes.empty()) {
    return agl::Status::InvalidArgument("GraphInfer: empty node table");
  }
  AGL_RETURN_IF_ERROR(CheckFeatureWidths(nodes, config.model.in_dim));
  Stopwatch watch;
  const double cpu_start = ProcessCpuSeconds();

  // Pre-normalize the adjacency exactly as the trainer does (our stand-in
  // for the paper's degree-joining preprocessing): each in-edge stub carries
  // its normalized weight, self-loops included where the model adds them.
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
  gnn::GnnModel model_for_norm(config.model);
  const tensor::SparseMatrix norm = model_for_norm.NormalizeAdjacency(
      tensor::SparseMatrix::FromCoo(static_cast<int64_t>(nodes.size()),
                                    static_cast<int64_t>(nodes.size()),
                                    std::move(entries)));

  // Map-equivalent bootstrap input: self embeddings (raw features), in-edge
  // stubs with normalized weights, out-edge lists.
  std::vector<mr::KeyValue> records;
  records.reserve(nodes.size() + 2 * norm.nnz());
  int64_t live_bytes = 0;
  for (const NodeRecord& n : nodes) {
    const std::string key = std::to_string(n.id);
    records.push_back(
        {key, Tagged(kTagEmb, EncodeEmbedding(n.id, n.features))});
  }
  for (int64_t dst = 0; dst < norm.rows(); ++dst) {
    const std::string dst_key = std::to_string(nodes[dst].id);
    for (int64_t p = norm.row_ptr()[dst]; p < norm.row_ptr()[dst + 1]; ++p) {
      const NodeId src_id = nodes[norm.col_idx()[p]].id;
      records.push_back(
          {dst_key,
           Tagged(kTagInStub, EncodeStub(src_id, norm.values()[p]))});
      if (src_id != nodes[dst].id) {
        io::BufferWriter w;
        w.PutVarint64(nodes[dst].id);
        records.push_back(
            {std::to_string(src_id), Tagged(kTagOutEdge, w.Release())});
      }
    }
  }

  ctx.num_layers = config.model.num_layers;
  ctx.model = config.model;
  std::atomic<int64_t> embedding_evals{0};
  ctx.embedding_evals = &embedding_evals;

  InferResult result;
  // Sharded execution mirrors GraphFlat: records live on their key's home
  // shard, one reduce job runs per shard per round, and propagated
  // neighbor embeddings are exchanged across the partition between rounds.
  // num_shards == 1 degenerates to the single global job.
  const int num_shards = std::max(1, config.num_shards);
  flat::ShardRouter router{flat::ShardPlan(num_shards)};
  std::vector<std::vector<mr::KeyValue>> seeded;
  seeded.push_back(std::move(records));
  std::vector<std::vector<mr::KeyValue>> shard_records =
      router.Exchange(std::move(seeded));
  std::vector<mr::JobStats> shard_stats(num_shards);
  for (int round = 0; round <= config.model.num_layers + 1; ++round) {
    Stopwatch round_watch;
    ctx.round = round;
    const RoundContext round_ctx = ctx;
    for (const auto& recs : shard_records) {
      for (const mr::KeyValue& kv : recs) {
        live_bytes += static_cast<int64_t>(kv.key.size() + kv.value.size());
      }
    }
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
    // Cross-key (neighbor) records exist only while rounds still
    // propagate; afterwards everything is self-keyed and already home.
    if (round < config.model.num_layers) {
      shard_records = router.Exchange(std::move(shard_records));
    }
    result.costs.memory_gb_minutes +=
        static_cast<double>(live_bytes) / (1024.0 * 1024.0 * 1024.0) *
        (round_watch.Seconds() / 60.0);
    live_bytes = 0;
  }

  for (const auto& recs : shard_records) {
    for (const mr::KeyValue& kv : recs) {
      if (kv.value.empty() || kv.value[0] != kTagScore) continue;
      NodeId id;
      std::vector<float> scores;
      AGL_RETURN_IF_ERROR(DecodeEmbedding(kv.value.substr(1), &id, &scores));
      result.scores.emplace_back(id, std::move(scores));
    }
  }
  std::sort(result.scores.begin(), result.scores.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  result.costs.time_seconds = watch.Seconds();
  result.costs.cpu_core_minutes = (ProcessCpuSeconds() - cpu_start) / 60.0;
  result.costs.embedding_evaluations = embedding_evals.load();
  return result;
}

/// Target-subset pruning: runs the round schedule over the union of the
/// targets' K-hop in-neighborhoods, found by walking only that frontier,
/// and adds the targets' scores and the run's costs to `out`. Nodes outside
/// can never influence a target's embedding (Theorem 1), so dropping them
/// up front is the inference-side analogue of the trainer's graph pruning.
agl::Status RunPruned(const InferConfig& config,
                      const flat::TableGraph& graph,
                      const std::vector<NodeId>& targets, RoundContext ctx,
                      InferResult* out) {
  std::vector<std::pair<NodeId, int>> seeds;
  for (NodeId t : targets) seeds.emplace_back(t, 0);
  const std::unordered_map<NodeId, int> depth =
      graph.Levels(seeds, Direction::kIn, config.model.num_layers);
  const auto [nodes, edges] = graph.Slice(depth, /*src_reached=*/true);
  ctx.depth = &depth;
  // The pruning kept every node and edge: the slice covers the graph.
  ctx.cache_all_rounds = nodes.size() == graph.nodes().size() &&
                         edges.size() == graph.edges().size();
  // GCN's symmetric normalization folds in *out*-degrees, which frontier
  // truncation changes, so a pruned GCN slice has no slice-invariant
  // embeddings to share — the cache stays out of the loop there (the
  // complete-graph case is still safe and still cached).
  if (config.model.type == gnn::ModelType::kGcn && !ctx.cache_all_rounds) {
    ctx.cache = nullptr;
  }
  AGL_ASSIGN_OR_RETURN(InferResult result,
                       RunInferCore(config, nodes, edges, ctx));
  out->costs.embedding_evaluations += result.costs.embedding_evaluations;
  out->costs.memory_gb_minutes += result.costs.memory_gb_minutes;
  out->costs.cpu_core_minutes += result.costs.cpu_core_minutes;
  // Keep only the targets' (the depth-0 nodes') scores: neighborhood nodes
  // were computed with possibly pruned in-neighborhoods of their own.
  for (auto& entry : result.scores) {
    if (depth.at(entry.first) == 0) out->scores.push_back(std::move(entry));
  }
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
  RoundContext ctx;
  ctx.slices = &slices;
  if (config.target_ids.empty()) {
    return RunInferCore(config, nodes, edges, ctx);
  }

  Stopwatch watch;
  InferResult out;
  AGL_RETURN_IF_ERROR(RunPruned(config, flat::TableGraph(nodes, edges),
                                config.target_ids, ctx, &out));
  out.costs.time_seconds = watch.Seconds();
  return out;
}

agl::Result<InferResult> RunGraphInferBatched(
    const InferConfig& config,
    const std::map<std::string, tensor::Tensor>& state,
    const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges) {
  EmbeddingCache cache(config.cache_budget_bytes);
  if (cache.enabled() && !config.cache_spill_path.empty()) {
    AGL_RETURN_IF_ERROR(cache.EnableSpill(config.cache_spill_path));
  }
  return RunGraphInferBatched(config, state, flat::TableGraph(nodes, edges),
                              &cache);
}

agl::Result<InferResult> RunGraphInferBatched(
    const InferConfig& config,
    const std::map<std::string, tensor::Tensor>& state,
    const flat::TableGraph& graph, EmbeddingStore* store) {
  if (store == nullptr) {
    return agl::Status::InvalidArgument(
        "RunGraphInferBatched: external store must not be null");
  }
  const std::vector<NodeRecord>& nodes = graph.nodes();
  if (nodes.empty()) {
    return agl::Status::InvalidArgument("GraphInfer: empty node table");
  }
  Stopwatch watch;
  const double cpu_start = ProcessCpuSeconds();

  AGL_ASSIGN_OR_RETURN(std::vector<ModelSlice> slices,
                       SegmentModel(state, config.model));

  std::vector<NodeId> targets = config.target_ids;
  if (targets.empty()) {
    targets.reserve(nodes.size());
    for (const NodeRecord& n : nodes) targets.push_back(n.id);
  }
  const std::vector<std::vector<NodeId>> target_slices =
      PartitionTargets(targets, config.batch_slices);

  RoundContext ctx;
  ctx.slices = &slices;
  ctx.cache = store;
  ctx.model_version = StateFingerprint(state);
  // A shared store accumulates counters across calls; report this call's
  // delta so InferCosts keeps its per-run meaning.
  const EmbeddingCacheStats before = store->stats();

  InferResult out;
  out.num_slices = static_cast<int>(target_slices.size());
  for (const std::vector<NodeId>& slice_targets : target_slices) {
    AGL_RETURN_IF_ERROR(RunPruned(config, graph, slice_targets, ctx, &out));
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
