#include "flat/graphflat.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/timer.h"
#include "flat/shard.h"
#include "flat/state.h"
#include "io/codec.h"

namespace agl::flat {
namespace {

// Value tags for the records flowing through the pipeline.
constexpr char kTagNode = 'N';      // NodeRecord (map output, self info)
constexpr char kTagInEdge = 'I';    // EdgeRecord keyed by dst
constexpr char kTagOutEdge = 'O';   // EdgeRecord keyed by src
constexpr char kTagState = 'S';     // SubgraphState (self info, rounds >= 1)
constexpr char kTagNeighbor = 'P';  // propagated neighbor SubgraphState
constexpr char kTagFinal = 'F';     // flattened GraphFeature bytes

std::string Tagged(char tag, const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 1);
  out.push_back(tag);
  out.append(payload);
  return out;
}

// --- Map phase ------------------------------------------------------------

/// Parses raw table rows and emits the three kinds of information of
/// §3.2.1: self, in-edge, out-edge.
class FlatMapper : public mr::Mapper {
 public:
  agl::Status Map(const mr::KeyValue& input, mr::Emitter* out) override {
    if (input.value.empty()) {
      return agl::Status::InvalidArgument("empty input record");
    }
    const char tag = input.value[0];
    const std::string payload = input.value.substr(1);
    if (tag == kTagNode) {
      AGL_ASSIGN_OR_RETURN(NodeRecord node, NodeRecord::Parse(payload));
      out->Emit(std::to_string(node.id), Tagged(kTagNode, payload));
      return agl::Status::OK();
    }
    if (tag == kTagInEdge) {  // raw edge row
      AGL_ASSIGN_OR_RETURN(EdgeRecord edge, EdgeRecord::Parse(payload));
      out->Emit(std::to_string(edge.dst), Tagged(kTagInEdge, payload));
      out->Emit(std::to_string(edge.src), Tagged(kTagOutEdge, payload));
      return agl::Status::OK();
    }
    return agl::Status::InvalidArgument("unknown input tag");
  }
};

// --- Reduce rounds ----------------------------------------------------------

struct RoundContext {
  int round = 0;       // 0..hops
  int last_round = 0;  // == hops
  sampling::SamplerConfig sampler_config;
  uint64_t seed = 0;
  GraphFlatConfig::Targets targets = GraphFlatConfig::Targets::kLabeledNodes;
  int64_t node_feature_dim = 0;
  int64_t edge_feature_dim = 0;
};

/// Does `self` receive a GraphFeature under the configured target policy?
bool IsTarget(const RoundContext& ctx, const NodeRecord& self) {
  return ctx.targets == GraphFlatConfig::Targets::kAllNodes ||
         self.label >= 0 || !self.multilabel.empty();
}

/// The Storing step (§3.2.1): flattens `state` to a final record iff the
/// node is a requested target. The record carries the feature's node and
/// edge counts ahead of its bytes, so counting never re-parses it:
///   'F' varint(num_nodes) varint(num_edges) GraphFeature bytes
agl::Status EmitFinalIfTarget(const RoundContext& ctx, const std::string& key,
                              NodeId self_id, const SubgraphState& state,
                              mr::Emitter* out) {
  if (!state.HasNode(self_id)) return agl::Status::OK();
  if (IsTarget(ctx, state.nodes().at(self_id))) {
    AGL_ASSIGN_OR_RETURN(
        subgraph::GraphFeature gf,
        state.ToGraphFeature(ctx.node_feature_dim, ctx.edge_feature_dim));
    io::BufferWriter w;
    w.PutBytes(&kTagFinal, 1);
    w.PutVarint64(static_cast<uint64_t>(gf.num_nodes()));
    w.PutVarint64(static_cast<uint64_t>(gf.num_edges()));
    const std::string bytes = gf.Serialize();
    w.PutBytes(bytes.data(), bytes.size());
    out->Emit(key, w.Release());
  }
  return agl::Status::OK();
}

/// One merging/propagation round (Figure 2). See header for the schedule.
class FlatReducer : public mr::Reducer {
 public:
  explicit FlatReducer(const RoundContext& ctx)
      : ctx_(ctx), sampler_(sampling::MakeSampler(ctx.sampler_config)) {}

  agl::Status Reduce(const std::string& key,
                     const std::vector<std::string>& values,
                     mr::Emitter* out) override {
    SubgraphState state;
    bool have_state = false;
    std::vector<EdgeRecord> in_edges;
    std::vector<std::string> out_edges;  // retained serialized payloads
    std::vector<SubgraphState> neighbor_states;

    for (const std::string& v : values) {
      if (v.empty()) return agl::Status::Corruption("empty reduce value");
      const char tag = v[0];
      const std::string payload = v.substr(1);
      switch (tag) {
        case kTagNode: {
          AGL_ASSIGN_OR_RETURN(NodeRecord node, NodeRecord::Parse(payload));
          if (!have_state) {
            state = SubgraphState(node.id);
            have_state = true;
          }
          state.AddNode(node);
          break;
        }
        case kTagState: {
          AGL_ASSIGN_OR_RETURN(SubgraphState s, SubgraphState::Parse(payload));
          if (have_state) {
            state.Merge(s);
          } else {
            state = std::move(s);
            have_state = true;
          }
          break;
        }
        case kTagInEdge: {
          AGL_ASSIGN_OR_RETURN(EdgeRecord e, EdgeRecord::Parse(payload));
          in_edges.push_back(std::move(e));
          break;
        }
        case kTagOutEdge:
          out_edges.push_back(payload);
          break;
        case kTagNeighbor: {
          AGL_ASSIGN_OR_RETURN(SubgraphState s, SubgraphState::Parse(payload));
          neighbor_states.push_back(std::move(s));
          break;
        }
        default:
          return agl::Status::Corruption("unknown value tag in reduce");
      }
    }

    const NodeId self_id = static_cast<NodeId>(std::stoull(key));
    if (!have_state) {
      // Edge endpoint without a node-table row: keep a featureless state so
      // out-edges still propagate structure.
      state = SubgraphState(self_id);
    }

    // Deterministic per (key, round): retried task attempts sample
    // identically.
    Rng rng(DeriveSeed(ctx_.seed, Fnv1aHash(key) * 31 +
                                      static_cast<uint64_t>(ctx_.round)));

    // Merge via in-edges (round 0: raw stubs; later rounds: neighbor
    // states filtered to this node's kept in-edges).
    if (!in_edges.empty()) {
      std::vector<float> weights(in_edges.size());
      for (std::size_t i = 0; i < in_edges.size(); ++i) {
        weights[i] = in_edges[i].weight;
      }
      for (std::size_t pos :
           sampler_->Sample({weights.data(), weights.size()}, &rng)) {
        state.AddEdge(in_edges[pos]);
      }
    }
    if (!neighbor_states.empty()) {
      // Respect round-0 sampling: only merge states from sources this node
      // kept as in-edges.
      std::vector<const SubgraphState*> eligible;
      std::vector<float> weights;
      for (const SubgraphState& s : neighbor_states) {
        const float w = state.EdgeWeightOr(s.root(), self_id, -1.f);
        if (w < 0.f) continue;
        eligible.push_back(&s);
        weights.push_back(w);
      }
      for (std::size_t pos :
           sampler_->Sample({weights.data(), weights.size()}, &rng)) {
        state.Merge(*eligible[pos]);
      }
    }

    if (ctx_.round == ctx_.last_round) {
      return EmitFinalIfTarget(ctx_, key, self_id, state, out);
    }

    // Propagation via out-edges: the merged self info becomes the new
    // in-edge information of each destination.
    const std::string state_bytes = state.Serialize();
    for (const std::string& payload : out_edges) {
      AGL_ASSIGN_OR_RETURN(EdgeRecord e, EdgeRecord::Parse(payload));
      out->Emit(std::to_string(e.dst), Tagged(kTagNeighbor, state_bytes));
      out->Emit(key, Tagged(kTagOutEdge, payload));
    }
    out->Emit(key, Tagged(kTagState, state_bytes));
    return agl::Status::OK();
  }

 private:
  RoundContext ctx_;
  std::unique_ptr<sampling::NeighborSampler> sampler_;
};

// --- Re-indexing ------------------------------------------------------------

/// Combiner for re-indexed hub shards: samples the shard's in-edge /
/// neighbor-state records down to the per-shard budget and restores the
/// original shuffle key (inverted indexing). Non-suffixed keys pass
/// through untouched.
class ReindexCombiner : public mr::Reducer {
 public:
  ReindexCombiner(const sampling::SamplerConfig& sampler_config,
                  int64_t per_shard_cap, uint64_t seed)
      : per_shard_cap_(per_shard_cap), seed_(seed) {
    sampling::SamplerConfig capped = sampler_config;
    if (capped.strategy == sampling::Strategy::kNone) {
      capped.strategy = sampling::Strategy::kUniform;
    }
    capped.max_neighbors = per_shard_cap;
    sampler_ = sampling::MakeSampler(capped);
  }

  agl::Status Reduce(const std::string& key,
                     const std::vector<std::string>& values,
                     mr::Emitter* out) override {
    const std::size_t hash_pos = key.find('#');
    if (hash_pos == std::string::npos) {
      for (const std::string& v : values) out->Emit(key, v);
      return agl::Status::OK();
    }
    const std::string original_key = key.substr(0, hash_pos);
    // Split sampleable records from pass-through ones.
    std::vector<const std::string*> sampleable;
    std::vector<float> weights;
    for (const std::string& v : values) {
      if (v.empty()) return agl::Status::Corruption("empty combiner value");
      if (v[0] == kTagInEdge || v[0] == kTagNeighbor) {
        sampleable.push_back(&v);
        float w = 1.f;
        if (v[0] == kTagInEdge) {
          AGL_ASSIGN_OR_RETURN(EdgeRecord e, EdgeRecord::Parse(v.substr(1)));
          w = e.weight;
        }
        weights.push_back(w);
      } else {
        out->Emit(original_key, v);
      }
    }
    Rng rng(DeriveSeed(seed_, Fnv1aHash(key)));
    for (std::size_t pos :
         sampler_->Sample({weights.data(), weights.size()}, &rng)) {
      out->Emit(original_key, *sampleable[pos]);
    }
    return agl::Status::OK();
  }

 private:
  int64_t per_shard_cap_;
  uint64_t seed_;
  std::unique_ptr<sampling::NeighborSampler> sampler_;
};

}  // namespace

agl::Result<std::vector<mr::KeyValue>> ReindexAndSampleHubKeys(
    const GraphFlatConfig& config, std::vector<mr::KeyValue> records,
    int round) {
  if (config.hub_threshold <= 0) return records;
  // Count the sampleable (merge-side) records per key.
  std::unordered_map<std::string, int64_t> in_count;
  for (const mr::KeyValue& kv : records) {
    if (!kv.value.empty() &&
        (kv.value[0] == kTagInEdge || kv.value[0] == kTagNeighbor)) {
      in_count[kv.key]++;
    }
  }
  bool any_hub = false;
  for (const auto& [key, count] : in_count) {
    if (count > config.hub_threshold) {
      any_hub = true;
      break;
    }
  }
  if (!any_hub) return records;

  const int fanout = std::max(1, config.reindex_fanout);
  // Per-shard budget: the sampler cap (or hub threshold) split over shards.
  const int64_t total_cap = config.sampler.max_neighbors > 0
                                ? config.sampler.max_neighbors
                                : config.hub_threshold;
  const int64_t per_shard = std::max<int64_t>(1, total_cap / fanout);

  // Re-indexing: append a random-but-deterministic suffix to hub keys.
  for (mr::KeyValue& kv : records) {
    if (kv.value.empty()) continue;
    const char tag = kv.value[0];
    if (tag != kTagInEdge && tag != kTagNeighbor) continue;
    auto it = in_count.find(kv.key);
    if (it == in_count.end() || it->second <= config.hub_threshold) continue;
    const uint64_t shard =
        DeriveSeed(config.job.seed + static_cast<uint64_t>(round),
                   Fnv1aHash(kv.value)) %
        static_cast<uint64_t>(fanout);
    kv.key += '#';
    kv.key += std::to_string(shard);
  }

  const uint64_t seed = DeriveSeed(config.job.seed, 777 + round);
  return mr::RunReducePhase(
      config.job, std::move(records),
      [&] {
        return std::make_unique<ReindexCombiner>(config.sampler, per_shard,
                                                 seed);
      },
      nullptr);
}

namespace {

/// Raw-table rows tagged as map input, shared by both pipelines.
std::vector<mr::KeyValue> BuildMapInput(const std::vector<NodeRecord>& nodes,
                                        const std::vector<EdgeRecord>& edges) {
  std::vector<mr::KeyValue> input;
  input.reserve(nodes.size() + edges.size());
  for (const NodeRecord& n : nodes) {
    input.push_back({"", Tagged(kTagNode, n.Serialize())});
  }
  for (const EdgeRecord& e : edges) {
    input.push_back({"", Tagged(kTagInEdge, e.Serialize())});
  }
  return input;
}

/// The job over the full tables, with the feature dims inferred from their
/// first rows.
FlatShardJob MakeJob(const GraphFlatConfig& config,
                     const std::vector<NodeRecord>& nodes,
                     const std::vector<EdgeRecord>& edges) {
  FlatShardJob job;
  job.config = config;
  job.config.num_shards = std::max(1, config.num_shards);
  job.node_feature_dim = static_cast<int64_t>(nodes[0].features.size());
  job.edge_feature_dim =
      edges.empty() ? 0 : static_cast<int64_t>(edges[0].features.size());
  return job;
}

RoundContext MakeContext(const FlatShardJob& job) {
  RoundContext ctx;
  ctx.last_round = job.config.hops;
  ctx.sampler_config = job.config.sampler;
  ctx.seed = job.config.job.seed;
  ctx.targets = job.config.targets;
  ctx.node_feature_dim = job.node_feature_dim;
  ctx.edge_feature_dim = job.edge_feature_dim;
  return ctx;
}

/// The single-shard pipeline: the map phase and the k+1 reduce rounds over
/// the full tables, returning the last round's final records.
agl::Result<std::vector<mr::KeyValue>> RunPipeline(
    const GraphFlatConfig& config, const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges, GraphFlatStats* stats) {
  if (nodes.empty()) {
    return agl::Status::InvalidArgument("GraphFlat: empty node table");
  }
  RoundContext ctx = MakeContext(MakeJob(config, nodes, edges));
  AGL_ASSIGN_OR_RETURN(
      std::vector<mr::KeyValue> records,
      mr::RunMapPhase(config.job, BuildMapInput(nodes, edges),
                      [] { return std::make_unique<FlatMapper>(); },
                      &stats->job_stats));

  for (int round = 0; round <= config.hops; ++round) {
    AGL_ASSIGN_OR_RETURN(records,
                         ReindexAndSampleHubKeys(config, std::move(records),
                                                 round));
    ctx.round = round;
    RoundContext round_ctx = ctx;
    AGL_ASSIGN_OR_RETURN(
        records,
        mr::RunReducePhase(config.job, std::move(records),
                           [round_ctx] {
                             return std::make_unique<FlatReducer>(round_ctx);
                           },
                           &stats->job_stats));
  }
  return records;
}

/// Strips the final records of a job's last round down to `(target id,
/// GraphFeature bytes)` and counts them into `stats` from the counts each
/// record carries (see EmitFinalIfTarget).
agl::Result<std::vector<std::pair<NodeId, std::string>>> TakeFinals(
    std::vector<mr::KeyValue> records, GraphFlatStats* stats) {
  std::vector<std::pair<NodeId, std::string>> finals;
  finals.reserve(records.size());
  for (mr::KeyValue& kv : records) {
    if (kv.value.empty() || kv.value[0] != kTagFinal) {
      return agl::Status::Corruption("non-final record after the last round");
    }
    io::BufferReader r(kv.value.data() + 1, kv.value.size() - 1);
    uint64_t num_nodes = 0, num_edges = 0;
    AGL_RETURN_IF_ERROR(r.GetVarint64(&num_nodes));
    AGL_RETURN_IF_ERROR(r.GetVarint64(&num_edges));
    kv.value.erase(0, 1 + r.position());
    stats->num_features++;
    stats->total_nodes += static_cast<int64_t>(num_nodes);
    stats->total_edges += static_cast<int64_t>(num_edges);
    stats->max_nodes =
        std::max(stats->max_nodes, static_cast<int64_t>(num_nodes));
    finals.emplace_back(static_cast<NodeId>(std::stoull(kv.key)),
                        std::move(kv.value));
  }
  return finals;
}

/// Writes `finals` id-sorted as `name`, round-robin over `output_parts`
/// part files: the writer of the single-shard dataset and of every shard's
/// slice.
agl::Status WriteSorted(int output_parts,
                        std::vector<std::pair<NodeId, std::string>> finals,
                        mr::LocalDfs* dfs, const std::string& name) {
  std::sort(finals.begin(), finals.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> payloads;
  payloads.reserve(finals.size());
  for (auto& [id, bytes] : finals) payloads.push_back(std::move(bytes));
  return dfs->WriteDataset(name, payloads, output_parts);
}

/// Runs the S shards of a sharded job on threads over one InMemoryExchange.
/// Shards that store do so through the caller's `dfs`.
agl::Result<std::vector<FlatShardOutput>> RunFlatShardThreads(
    const FlatShardJob& job, const ShardedTables& tables, mr::LocalDfs* dfs) {
  std::vector<FlatShardOutput> shards(tables.nodes.size());
  AGL_ASSIGN_OR_RETURN(
      const ExchangeStats exchange,
      RunShardsInProcess(
          static_cast<int>(shards.size()),
          [&](int s, Exchange* ex) -> agl::Status {
            AGL_ASSIGN_OR_RETURN(shards[s],
                                 RunFlatShard(job, s, tables.nodes[s],
                                              tables.edges[s], ex, dfs));
            return agl::Status::OK();
          }));
  // One exchange carried every shard's traffic; sums over shards stay
  // exact when it is booked on shard 0.
  shards[0].stats.exchange = exchange;
  return shards;
}

/// The front half of the sharded job shell: partitions the tables, runs
/// the shards through `run_shards`, and sums their counters into `stats`.
/// Produces the same features as the single-shard pipeline
/// (tests/sharding_test.cpp holds the byte-identity property over shard
/// counts) whether the shards run as threads or as processes.
agl::Result<std::vector<FlatShardOutput>> RunShards(
    const GraphFlatConfig& config, const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges, std::string output_root,
    std::string dataset, const FlatShardRunner& run_shards,
    GraphFlatStats* stats) {
  if (nodes.empty()) {
    return agl::Status::InvalidArgument("GraphFlat: empty node table");
  }
  FlatShardJob job = MakeJob(config, nodes, edges);
  job.output_root = std::move(output_root);
  job.dataset = std::move(dataset);
  ShardRouter router{ShardPlan(job.config.num_shards)};
  AGL_ASSIGN_OR_RETURN(std::vector<FlatShardOutput> shards,
                       run_shards(job, router.PartitionTables(nodes, edges)));
  for (const FlatShardOutput& shard : shards) stats->Accumulate(shard.stats);
  return shards;
}

}  // namespace

void GraphFlatStats::Accumulate(const GraphFlatStats& other) {
  num_features += other.num_features;
  total_nodes += other.total_nodes;
  total_edges += other.total_edges;
  max_nodes = std::max(max_nodes, other.max_nodes);
  job_stats.Accumulate(other.job_stats);
  exchange.Accumulate(other.exchange);
}

agl::Result<FlatShardOutput> RunFlatShard(
    const FlatShardJob& job, int shard,
    const std::vector<NodeRecord>& shard_nodes,
    const std::vector<EdgeRecord>& shard_edges, Exchange* exchange,
    mr::LocalDfs* out_dfs) {
  if (!job.dataset.empty() && out_dfs == nullptr) {
    return agl::Status::InvalidArgument(
        "RunFlatShard: a job that names a dataset needs an output DFS");
  }
  const GraphFlatConfig& config = job.config;
  RoundContext ctx = MakeContext(job);
  ShardRouter router{ShardPlan(std::max(1, config.num_shards))};
  FlatShardOutput out;

  // Map phase: local to this shard's table slice; the home filter drops
  // the duplicate stubs of edges mapped on both endpoint shards.
  AGL_ASSIGN_OR_RETURN(
      std::vector<mr::KeyValue> records,
      mr::RunMapPhase(config.job, BuildMapInput(shard_nodes, shard_edges),
                      [] { return std::make_unique<FlatMapper>(); },
                      &out.stats.job_stats));
  router.FilterToShard(shard, &records);

  for (int round = 0; round <= config.hops; ++round) {
    ctx.round = round;
    const RoundContext round_ctx = ctx;
    // Every record of a key sits on its home shard here, so the hub
    // counts (and the suffix-shard sampling) match the single-shard run.
    AGL_ASSIGN_OR_RETURN(
        records, ReindexAndSampleHubKeys(config, std::move(records), round));
    AGL_ASSIGN_OR_RETURN(
        records,
        mr::RunReducePhase(config.job, std::move(records),
                           [round_ctx] {
                             return std::make_unique<FlatReducer>(round_ctx);
                           },
                           &out.stats.job_stats));
    if (round < config.hops) {
      // Boundary exchange: neighbor states propagated along cross-shard
      // edges move to their destination's home shard.
      AGL_RETURN_IF_ERROR(exchange->Publish(round, shard, std::move(records)));
      AGL_ASSIGN_OR_RETURN(records, exchange->Collect(round, shard));
    }
  }

  // No exchange follows the last round, so it reduced each key homed here
  // exactly once: its final records are this shard's features.
  AGL_ASSIGN_OR_RETURN(out.features,
                       TakeFinals(std::move(records), &out.stats));
  if (job.dataset.empty()) return out;
  AGL_RETURN_IF_ERROR(WriteSorted(config.output_parts,
                                  std::move(out.features), out_dfs,
                                  mr::ShardDatasetName(job.dataset, shard)));
  out.features.clear();
  return out;
}

agl::Result<std::vector<subgraph::GraphFeature>> RunGraphFlatInMemory(
    const GraphFlatConfig& config, const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges, GraphFlatStats* stats) {
  Stopwatch watch;
  GraphFlatStats local_stats;
  std::vector<std::pair<NodeId, std::string>> finals;
  if (config.num_shards > 1) {
    AGL_ASSIGN_OR_RETURN(
        std::vector<FlatShardOutput> shards,
        RunShards(config, nodes, edges, "", "",
                  [](const FlatShardJob& job, const ShardedTables& tables) {
                    return RunFlatShardThreads(job, tables, nullptr);
                  },
                  &local_stats));
    for (FlatShardOutput& shard : shards) {
      for (auto& f : shard.features) finals.push_back(std::move(f));
    }
  } else {
    AGL_ASSIGN_OR_RETURN(std::vector<mr::KeyValue> records,
                         RunPipeline(config, nodes, edges, &local_stats));
    AGL_ASSIGN_OR_RETURN(finals,
                         TakeFinals(std::move(records), &local_stats));
  }
  std::vector<subgraph::GraphFeature> features;
  features.reserve(finals.size());
  for (const auto& [id, bytes] : finals) {
    AGL_ASSIGN_OR_RETURN(subgraph::GraphFeature gf,
                         subgraph::GraphFeature::Parse(bytes));
    features.push_back(std::move(gf));
  }
  // Deterministic output order regardless of reduce-task interleaving.
  std::sort(features.begin(), features.end(),
            [](const subgraph::GraphFeature& a,
               const subgraph::GraphFeature& b) {
              return a.target_id < b.target_id;
            });
  local_stats.elapsed_seconds = watch.Seconds();
  if (stats != nullptr) *stats = local_stats;
  return features;
}

agl::Status GraphFlatConfig::Validate() const {
  if (hops < 1) {
    return agl::Status::InvalidArgument("GraphFlatConfig: hops must be >= 1");
  }
  if (output_parts < 1) {
    return agl::Status::InvalidArgument(
        "GraphFlatConfig: output_parts must be >= 1");
  }
  if (num_shards < 1) {
    return agl::Status::InvalidArgument(
        "GraphFlatConfig: num_shards must be >= 1");
  }
  if (reindex_fanout < 1) {
    return agl::Status::InvalidArgument(
        "GraphFlatConfig: reindex_fanout must be >= 1");
  }
  if (sampler.strategy != sampling::Strategy::kNone &&
      sampler.max_neighbors <= 0) {
    return agl::Status::InvalidArgument(
        "GraphFlatConfig: a sampling strategy needs max_neighbors > 0");
  }
  return agl::Status::OK();
}

agl::Status StoreFeaturePayloads(
    const GraphFlatConfig& config,
    std::vector<std::pair<NodeId, std::string>> finals, mr::LocalDfs* dfs,
    const std::string& dataset) {
  if (config.num_shards <= 1) {
    return WriteSorted(config.output_parts, std::move(finals), dfs, dataset);
  }
  // Each shard's slice is stored on its own, then the part files of every
  // shard are unified under the one logical dataset with stable part
  // numbering: shard s's local part j becomes global part
  // s * output_parts + j.
  ShardPlan plan(config.num_shards);
  std::vector<std::vector<std::pair<NodeId, std::string>>> by_shard(
      plan.num_shards());
  for (auto& f : finals) by_shard[plan.HomeShardOf(f.first)].push_back(std::move(f));
  std::vector<std::string> staging;
  for (int s = 0; s < plan.num_shards(); ++s) {
    staging.push_back(mr::ShardDatasetName(dataset, s));
    AGL_RETURN_IF_ERROR(WriteSorted(config.output_parts,
                                    std::move(by_shard[s]), dfs,
                                    staging.back()));
  }
  return dfs->UnifyDatasets(dataset, staging);
}

agl::Result<GraphFlatStats> RunGraphFlat(const GraphFlatConfig& config,
                                         const std::vector<NodeRecord>& nodes,
                                         const std::vector<EdgeRecord>& edges,
                                         mr::LocalDfs* dfs,
                                         const std::string& dataset) {
  if (config.num_shards > 1) {
    return RunGraphFlat(
        config, nodes, edges, dfs, dataset,
        [dfs](const FlatShardJob& job, const ShardedTables& tables) {
          return RunFlatShardThreads(job, tables, dfs);
        });
  }
  Stopwatch watch;
  GraphFlatStats stats;
  AGL_ASSIGN_OR_RETURN(std::vector<mr::KeyValue> records,
                       RunPipeline(config, nodes, edges, &stats));
  AGL_ASSIGN_OR_RETURN(auto finals, TakeFinals(std::move(records), &stats));
  AGL_RETURN_IF_ERROR(
      WriteSorted(config.output_parts, std::move(finals), dfs, dataset));
  stats.elapsed_seconds = watch.Seconds();
  return stats;
}

agl::Result<GraphFlatStats> RunGraphFlat(const GraphFlatConfig& config,
                                         const std::vector<NodeRecord>& nodes,
                                         const std::vector<EdgeRecord>& edges,
                                         mr::LocalDfs* dfs,
                                         const std::string& dataset,
                                         const FlatShardRunner& run_shards) {
  Stopwatch watch;
  GraphFlatStats stats;
  auto shards =
      RunShards(config, nodes, edges, dfs->root(), dataset, run_shards, &stats);
  std::vector<std::string> staging;
  for (int s = 0; s < std::max(1, config.num_shards); ++s) {
    staging.push_back(mr::ShardDatasetName(dataset, s));
  }
  if (!shards.ok()) {
    // Every shard has stopped; drop the slices the finished ones stored
    // (DropDataset also sweeps a killed writer's scratch).
    for (const std::string& name : staging) (void)dfs->DropDataset(name);
    return shards.status();
  }
  AGL_RETURN_IF_ERROR(dfs->UnifyDatasets(dataset, staging));
  stats.elapsed_seconds = watch.Seconds();
  return stats;
}

}  // namespace agl::flat
