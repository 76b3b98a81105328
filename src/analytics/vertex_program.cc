#include "analytics/vertex_program.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "flat/shard.h"
#include "flat/table_map.h"
#include "io/codec.h"
#include "subgraph/graph_feature.h"
#include "tensor/tensor.h"

namespace agl::analytics {
namespace {

using flat::kTagInEdge;   // EdgeRecord keyed by dst (gather side)
using flat::kTagNode;     // NodeRecord (map output)
using flat::kTagOutEdge;  // EdgeRecord keyed by src (scatter side)
using flat::Tagged;

// Value tags of the superstep loop, beside the map output's three.
constexpr char kTagState = 'S';    // VertexState (one per vertex per round)
constexpr char kTagMessage = 'M';  // scatter message keyed by destination

/// The per-vertex record carried between supersteps: current value, the
/// gather cache (sorted by source id — canonical bytes), and the scatter
/// adjacency (sorted destination ids).
struct VertexState {
  NodeId id = 0;
  double value = 0.0;
  std::vector<GatherEntry> entries;
  std::vector<NodeId> out;

  std::string Serialize() const {
    io::BufferWriter w;
    w.PutVarint64(id);
    w.PutDouble(value);
    w.PutVarint64(entries.size());
    for (const GatherEntry& e : entries) {
      w.PutVarint64(e.src);
      w.PutFloat(e.weight);
      w.PutDouble(e.value);
      w.PutVarint64(e.received ? 1 : 0);
    }
    w.PutVarint64(out.size());
    for (NodeId dst : out) w.PutVarint64(dst);
    return w.Release();
  }

  static agl::Result<VertexState> Parse(const std::string& bytes) {
    io::BufferReader r(bytes);
    VertexState state;
    uint64_t id = 0;
    AGL_RETURN_IF_ERROR(r.GetVarint64(&id));
    state.id = id;
    AGL_RETURN_IF_ERROR(r.GetDouble(&state.value));
    uint64_t num_entries = 0;
    AGL_RETURN_IF_ERROR(r.GetVarint64(&num_entries));
    if (num_entries > r.remaining()) {
      return agl::Status::Corruption("vertex state entry count overflows");
    }
    state.entries.reserve(num_entries);
    for (uint64_t i = 0; i < num_entries; ++i) {
      GatherEntry e;
      uint64_t src = 0, received = 0;
      AGL_RETURN_IF_ERROR(r.GetVarint64(&src));
      AGL_RETURN_IF_ERROR(r.GetFloat(&e.weight));
      AGL_RETURN_IF_ERROR(r.GetDouble(&e.value));
      AGL_RETURN_IF_ERROR(r.GetVarint64(&received));
      e.src = src;
      e.received = received != 0;
      state.entries.push_back(e);
    }
    uint64_t num_out = 0;
    AGL_RETURN_IF_ERROR(r.GetVarint64(&num_out));
    if (num_out > r.remaining()) {
      return agl::Status::Corruption("vertex state out-degree overflows");
    }
    state.out.reserve(num_out);
    for (uint64_t i = 0; i < num_out; ++i) {
      uint64_t dst = 0;
      AGL_RETURN_IF_ERROR(r.GetVarint64(&dst));
      state.out.push_back(dst);
    }
    if (!r.AtEnd()) {
      return agl::Status::Corruption("trailing bytes in vertex state");
    }
    return state;
  }

  VertexContext Context(int64_t num_vertices) const {
    VertexContext ctx;
    ctx.id = id;
    ctx.in_degree = static_cast<int64_t>(entries.size());
    ctx.out_degree = static_cast<int64_t>(out.size());
    ctx.num_vertices = num_vertices;
    return ctx;
  }
};

std::string SerializeMessage(NodeId src, double value) {
  io::BufferWriter w;
  w.PutVarint64(src);
  w.PutDouble(value);
  return w.Release();
}

agl::Status ParseMessage(const std::string& bytes, NodeId* src,
                         double* value) {
  io::BufferReader r(bytes);
  uint64_t s = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&s));
  AGL_RETURN_IF_ERROR(r.GetDouble(value));
  if (!r.AtEnd()) {
    return agl::Status::Corruption("trailing bytes in scatter message");
  }
  *src = s;
  return agl::Status::OK();
}

struct RoundCtx {
  int round = 0;  // 0 = structural init round
  int64_t num_vertices = 0;
  const VertexProgram* program = nullptr;
};

/// Scatters `value` along every out-edge of `state` and re-emits the state.
void EmitStateAndScatter(const RoundCtx& ctx, const VertexState& state,
                         bool scatter, mr::Emitter* out) {
  if (scatter && !state.out.empty()) {
    const std::string msg = SerializeMessage(
        state.id,
        ctx.program->Scatter(state.Context(ctx.num_vertices), state.value));
    for (NodeId dst : state.out) {
      out->Emit(std::to_string(dst), Tagged(kTagMessage, msg));
    }
  }
  out->Emit(std::to_string(state.id), Tagged(kTagState, state.Serialize()));
}

/// Round 0: joins each vertex's node row with its edge stubs into the
/// initial VertexState and scatters the initial value (every vertex is
/// active at the start).
class InitReducer : public mr::Reducer {
 public:
  explicit InitReducer(const RoundCtx& ctx) : ctx_(ctx) {}

  agl::Status Reduce(const std::string& key,
                     const std::vector<std::string>& values,
                     mr::Emitter* out) override {
    VertexState state;
    bool have_node = false;
    std::vector<std::pair<NodeId, float>> in_stubs;
    for (const std::string& v : values) {
      if (v.empty()) return agl::Status::Corruption("empty analytics value");
      const std::string payload = v.substr(1);
      switch (v[0]) {
        case kTagNode: {
          if (have_node) {
            return agl::Status::Corruption("duplicate node row for vertex " +
                                           key);
          }
          AGL_ASSIGN_OR_RETURN(NodeRecord node, NodeRecord::Parse(payload));
          state.id = node.id;
          have_node = true;
          break;
        }
        case kTagInEdge: {
          AGL_ASSIGN_OR_RETURN(EdgeRecord e, EdgeRecord::Parse(payload));
          in_stubs.emplace_back(e.src, e.weight);
          break;
        }
        case kTagOutEdge: {
          AGL_ASSIGN_OR_RETURN(EdgeRecord e, EdgeRecord::Parse(payload));
          state.out.push_back(e.dst);
          break;
        }
        default:
          return agl::Status::Corruption("unknown tag in analytics round 0");
      }
    }
    if (!have_node) {
      // Upfront endpoint validation makes this unreachable on clean input.
      return agl::Status::Corruption("edge stubs without a node row: " + key);
    }
    // Canonical adjacency: gather entries sorted by source (parallel edges
    // collapse to the minimum weight), scatter list sorted + deduped.
    std::sort(in_stubs.begin(), in_stubs.end());
    state.entries.reserve(in_stubs.size());
    for (const auto& [src, weight] : in_stubs) {
      if (!state.entries.empty() && state.entries.back().src == src) continue;
      GatherEntry e;
      e.src = src;
      e.weight = weight;
      state.entries.push_back(e);
    }
    std::sort(state.out.begin(), state.out.end());
    state.out.erase(std::unique(state.out.begin(), state.out.end()),
                    state.out.end());

    const VertexContext vctx = state.Context(ctx_.num_vertices);
    state.value = ctx_.program->Init(vctx);
    if (vctx.in_degree == 0) {
      // A vertex that can never receive a message would otherwise be stuck
      // at its Init value; give it its one (empty-gather) Apply now.
      state.value = ctx_.program->Apply(vctx, state.value, {});
    }
    EmitStateAndScatter(ctx_, state, /*scatter=*/true, out);
    return agl::Status::OK();
  }

 private:
  RoundCtx ctx_;
};

/// Rounds >= 1: one gather-apply-scatter superstep for the vertices that
/// received messages; quiet vertices pass their state through untouched.
class StepReducer : public mr::Reducer {
 public:
  explicit StepReducer(const RoundCtx& ctx) : ctx_(ctx) {}

  agl::Status Reduce(const std::string& key,
                     const std::vector<std::string>& values,
                     mr::Emitter* out) override {
    VertexState state;
    bool have_state = false;
    std::vector<std::pair<NodeId, double>> messages;
    for (const std::string& v : values) {
      if (v.empty()) return agl::Status::Corruption("empty analytics value");
      const std::string payload = v.substr(1);
      switch (v[0]) {
        case kTagState: {
          if (have_state) {
            return agl::Status::Corruption("duplicate state for vertex " +
                                           key);
          }
          AGL_ASSIGN_OR_RETURN(state, VertexState::Parse(payload));
          have_state = true;
          break;
        }
        case kTagMessage: {
          NodeId src = 0;
          double value = 0.0;
          AGL_RETURN_IF_ERROR(ParseMessage(payload, &src, &value));
          messages.emplace_back(src, value);
          break;
        }
        default:
          return agl::Status::Corruption("unknown tag in analytics round " +
                                         std::to_string(ctx_.round));
      }
    }
    if (!have_state) {
      return agl::Status::Corruption("messages without a state for vertex " +
                                     key);
    }
    if (messages.empty()) {
      EmitStateAndScatter(ctx_, state, /*scatter=*/false, out);
      return agl::Status::OK();
    }
    for (const auto& [src, value] : messages) {
      auto it = std::lower_bound(
          state.entries.begin(), state.entries.end(), src,
          [](const GatherEntry& e, NodeId s) { return e.src < s; });
      if (it == state.entries.end() || it->src != src) {
        return agl::Status::Corruption(
            "scatter message from non-neighbor " + std::to_string(src) +
            " to vertex " + key);
      }
      it->value = value;
      it->received = true;
    }
    // Every in-neighbor scatters in round 0, so a hole here means a lost
    // message — never valid under exact home-shard routing.
    for (const GatherEntry& e : state.entries) {
      if (!e.received) {
        return agl::Status::Corruption("gather cache of vertex " + key +
                                       " missing the scatter value of " +
                                       std::to_string(e.src));
      }
    }
    const VertexContext vctx = state.Context(ctx_.num_vertices);
    const double next =
        ctx_.program->Apply(vctx, state.value, state.entries);
    const bool changed = ctx_.program->Changed(state.value, next);
    state.value = next;
    EmitStateAndScatter(ctx_, state, changed, out);
    return agl::Status::OK();
  }

 private:
  RoundCtx ctx_;
};

/// Messages produced by the previous round, and the distinct vertices they
/// target — the active set of the next superstep.
struct ActiveSet {
  int64_t messages = 0;
  int64_t vertices = 0;
};

ActiveSet ScanLocalActive(const std::vector<mr::KeyValue>& records) {
  ActiveSet active;
  std::unordered_set<std::string> keys;
  for (const mr::KeyValue& kv : records) {
    if (!kv.value.empty() && kv.value[0] == kTagMessage) {
      ++active.messages;
      keys.insert(kv.key);
    }
  }
  active.vertices = static_cast<int64_t>(keys.size());
  return active;
}

std::string SerializeActive(const ActiveSet& active) {
  io::BufferWriter w;
  w.PutVarint64(active.messages);
  w.PutVarint64(active.vertices);
  return w.Release();
}

agl::Result<ActiveSet> ParseActive(const std::string& bytes) {
  io::BufferReader r(bytes);
  uint64_t messages = 0, vertices = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&messages));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&vertices));
  if (!r.AtEnd()) {
    return agl::Status::Corruption("trailing bytes in active-set payload");
  }
  ActiveSet active;
  active.messages = static_cast<int64_t>(messages);
  active.vertices = static_cast<int64_t>(vertices);
  return active;
}

/// The distributed convergence check: every shard scans its own records
/// (messages and their target vertices home uniquely, so the per-shard
/// counts partition the global ones exactly), AllGathers the counts under
/// a check-unique tag, and sums — giving every shard the same global
/// active set without a coordinator.
agl::Result<ActiveSet> GlobalActive(flat::Exchange* exchange, int shard,
                                    int check_index,
                                    const std::vector<mr::KeyValue>& records) {
  const ActiveSet local = ScanLocalActive(records);
  AGL_ASSIGN_OR_RETURN(
      std::vector<std::string> payloads,
      exchange->AllGather("act." + std::to_string(check_index), shard,
                          SerializeActive(local)));
  ActiveSet total;
  for (const std::string& payload : payloads) {
    AGL_ASSIGN_OR_RETURN(ActiveSet peer, ParseActive(payload));
    total.messages += peer.messages;
    total.vertices += peer.vertices;
  }
  return total;
}

/// Upfront table validation + adjacency normalization: duplicate node ids
/// and dangling edge endpoints are kInvalidArgument; undirected programs
/// get a symmetrized edge table; parallel (src, dst) rows collapse to the
/// minimum-weight edge.
agl::Result<std::vector<EdgeRecord>> NormalizeEdgeTable(
    const VertexProgram& program, const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges) {
  if (nodes.empty()) {
    return agl::Status::InvalidArgument("analytics: empty node table");
  }
  std::unordered_set<NodeId> ids;
  ids.reserve(nodes.size());
  for (const NodeRecord& n : nodes) {
    if (!ids.insert(n.id).second) {
      return agl::Status::InvalidArgument(
          "analytics: duplicate node id " + std::to_string(n.id));
    }
  }
  std::vector<EdgeRecord> normalized;
  normalized.reserve(edges.size() * (program.Undirected() ? 2 : 1));
  for (const EdgeRecord& e : edges) {
    if (ids.count(e.src) == 0 || ids.count(e.dst) == 0) {
      return agl::Status::InvalidArgument(
          "analytics: edge " + std::to_string(e.src) + " -> " +
          std::to_string(e.dst) + " references a node missing from the "
          "node table");
    }
    EdgeRecord plain;
    plain.src = e.src;
    plain.dst = e.dst;
    plain.weight = e.weight;
    normalized.push_back(plain);
    if (program.Undirected() && e.src != e.dst) {
      std::swap(plain.src, plain.dst);
      normalized.push_back(plain);
    }
  }
  std::sort(normalized.begin(), normalized.end(),
            [](const EdgeRecord& a, const EdgeRecord& b) {
              return std::tie(a.src, a.dst, a.weight) <
                     std::tie(b.src, b.dst, b.weight);
            });
  normalized.erase(
      std::unique(normalized.begin(), normalized.end(),
                  [](const EdgeRecord& a, const EdgeRecord& b) {
                    return a.src == b.src && a.dst == b.dst;
                  }),
      normalized.end());
  return normalized;
}

}  // namespace

agl::Status AnalyticsConfig::Validate() const {
  if (max_supersteps < 1) {
    return agl::Status::InvalidArgument(
        "AnalyticsConfig: max_supersteps must be >= 1");
  }
  if (num_shards < 1) {
    return agl::Status::InvalidArgument(
        "AnalyticsConfig: num_shards must be >= 1");
  }
  if (output_parts < 1) {
    return agl::Status::InvalidArgument(
        "AnalyticsConfig: output_parts must be >= 1");
  }
  return agl::Status::OK();
}

std::string AnalyticsResult::SerializeValues() const {
  io::BufferWriter w;
  w.PutVarint64(values.size());
  for (const auto& [id, value] : values) {
    w.PutVarint64(id);
    w.PutDouble(value);
  }
  return w.Release();
}

agl::Result<AnalyticsShardOutput> RunAnalyticsShard(
    const AnalyticsShardJob& job, const VertexProgram& program, int shard,
    const std::vector<NodeRecord>& shard_nodes,
    const std::vector<EdgeRecord>& shard_edges, flat::Exchange* exchange) {
  const AnalyticsConfig& config = job.config;
  AnalyticsShardOutput out;
  AnalyticsStats& local = out.stats;
  RoundCtx ctx;
  ctx.num_vertices = job.num_vertices;
  ctx.program = &program;

  const int num_shards = std::max(1, config.num_shards);
  flat::ShardRouter router{flat::ShardPlan(num_shards)};

  // Map phase over the shard's table slice; the home filter drops the
  // duplicate stubs of edges mapped on both endpoint shards.
  AGL_ASSIGN_OR_RETURN(
      std::vector<mr::KeyValue> records,
      flat::MapTables(config.job, shard_nodes, shard_edges, &local.job_stats));
  router.FilterToShard(shard, &records);

  // Init round: build states, scatter initial values.
  {
    const RoundCtx round_ctx = ctx;
    AGL_ASSIGN_OR_RETURN(
        records,
        mr::RunReducePhase(config.job, std::move(records),
                           [round_ctx] {
                             return std::make_unique<InitReducer>(round_ctx);
                           },
                           &local.job_stats));
    AGL_RETURN_IF_ERROR(exchange->Publish(0, shard, std::move(records)));
    AGL_ASSIGN_OR_RETURN(records, exchange->Collect(0, shard));
  }

  // Superstep loop with per-round active sets: a round with zero pending
  // messages globally means every vertex converged — stop generating
  // traffic. The check index (= supersteps so far) tags each AllGather
  // uniquely, and because every shard sums the same payloads, all shards
  // take the same branch every iteration.
  while (local.supersteps < config.max_supersteps) {
    AGL_ASSIGN_OR_RETURN(
        const ActiveSet active,
        GlobalActive(exchange, shard, local.supersteps, records));
    if (active.messages == 0) {
      local.converged = true;
      break;
    }
    local.messages_per_round.push_back(active.messages);
    local.active_per_round.push_back(active.vertices);
    ctx.round = local.supersteps + 1;
    const RoundCtx round_ctx = ctx;
    AGL_ASSIGN_OR_RETURN(
        records,
        mr::RunReducePhase(config.job, std::move(records),
                           [round_ctx] {
                             return std::make_unique<StepReducer>(round_ctx);
                           },
                           &local.job_stats));
    AGL_RETURN_IF_ERROR(
        exchange->Publish(ctx.round, shard, std::move(records)));
    AGL_ASSIGN_OR_RETURN(records, exchange->Collect(ctx.round, shard));
    local.supersteps++;
  }
  if (!local.converged) {
    // Cap hit on every shard (supersteps == max_supersteps), so the check
    // index is past all loop checks — still unique, still in lockstep.
    AGL_ASSIGN_OR_RETURN(
        const ActiveSet active,
        GlobalActive(exchange, shard, local.supersteps, records));
    local.converged = active.messages == 0;
  }
  out.records = std::move(records);
  return out;
}

namespace {

/// Folds the shards' final 'S'-tagged records into the id-sorted value
/// list, validating that exactly `num_vertices` states survived.
agl::Result<std::vector<std::pair<NodeId, double>>> CollectFinalValues(
    const std::vector<AnalyticsShardOutput>& shards, int64_t num_vertices) {
  // Messages a hit superstep cap left behind are dropped — they were never
  // applied anywhere.
  std::vector<std::pair<NodeId, double>> values;
  values.reserve(num_vertices);
  for (const AnalyticsShardOutput& shard : shards) {
    for (const mr::KeyValue& kv : shard.records) {
      if (kv.value.empty() || kv.value[0] != kTagState) continue;
      AGL_ASSIGN_OR_RETURN(VertexState state,
                           VertexState::Parse(kv.value.substr(1)));
      values.emplace_back(state.id, state.value);
    }
  }
  if (static_cast<int64_t>(values.size()) != num_vertices) {
    return agl::Status::Corruption(
        "analytics: expected " + std::to_string(num_vertices) +
        " final vertex states, found " + std::to_string(values.size()));
  }
  std::sort(values.begin(), values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return values;
}

}  // namespace

agl::Result<AnalyticsResult> RunVertexProgram(
    const AnalyticsConfig& config, const VertexProgram& program,
    const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges) {
  return RunVertexProgram(
      config, program, nodes, edges,
      [&program](const AnalyticsShardJob& job,
                 const flat::ShardedTables& tables)
          -> agl::Result<std::vector<AnalyticsShardOutput>> {
        std::vector<AnalyticsShardOutput> shards(tables.nodes.size());
        AGL_ASSIGN_OR_RETURN(
            const flat::ExchangeStats exchange,
            flat::RunShardsInProcess(
                static_cast<int>(shards.size()),
                [&](int s, flat::Exchange* ex) -> agl::Status {
                  AGL_ASSIGN_OR_RETURN(
                      shards[s], RunAnalyticsShard(job, program, s,
                                                   tables.nodes[s],
                                                   tables.edges[s], ex));
                  return agl::Status::OK();
                }));
        // One exchange carried every shard's traffic; sums over shards
        // stay exact when it is booked on shard 0.
        shards[0].stats.exchange = exchange;
        return shards;
      });
}

agl::Result<AnalyticsResult> RunVertexProgram(
    const AnalyticsConfig& config, const VertexProgram& program,
    const std::vector<NodeRecord>& nodes, const std::vector<EdgeRecord>& edges,
    const AnalyticsShardRunner& run_shards) {
  Stopwatch watch;
  if (config.max_supersteps < 0) {
    return agl::Status::InvalidArgument("analytics: max_supersteps < 0");
  }
  AGL_ASSIGN_OR_RETURN(std::vector<EdgeRecord> normalized,
                       NormalizeEdgeTable(program, nodes, edges));

  AnalyticsShardJob job{config, static_cast<int64_t>(nodes.size())};
  job.config.num_shards = std::max(1, config.num_shards);
  flat::ShardRouter router{flat::ShardPlan(job.config.num_shards)};
  AGL_ASSIGN_OR_RETURN(
      std::vector<AnalyticsShardOutput> shards,
      run_shards(job, router.PartitionTables(nodes, normalized)));

  AnalyticsResult result;
  AGL_ASSIGN_OR_RETURN(result.values,
                       CollectFinalValues(shards, job.num_vertices));
  // The superstep accounting is a pure function of the AllGather'd sums,
  // so every shard computed identical numbers — take shard 0's. Job and
  // exchange counters are per-shard work; accumulate them.
  AnalyticsStats& stats = result.stats;
  stats.supersteps = shards[0].stats.supersteps;
  stats.converged = shards[0].stats.converged;
  stats.active_per_round = std::move(shards[0].stats.active_per_round);
  stats.messages_per_round = std::move(shards[0].stats.messages_per_round);
  for (const AnalyticsShardOutput& shard : shards) {
    stats.job_stats.Accumulate(shard.stats.job_stats);
    stats.exchange.Accumulate(shard.stats.exchange);
  }
  stats.num_vertices = job.num_vertices;
  stats.num_gather_edges = static_cast<int64_t>(normalized.size());
  stats.elapsed_seconds = watch.Seconds();
  return result;
}

agl::Status WriteValuesDataset(const AnalyticsResult& result,
                               const AnalyticsConfig& config,
                               mr::LocalDfs* dfs, const std::string& dataset) {
  std::vector<std::string> records;
  records.reserve(result.values.size());
  for (const auto& [id, value] : result.values) {
    subgraph::GraphFeature gf;
    gf.target_id = id;
    gf.target_index = 0;
    gf.label = -1;
    gf.node_ids = {id};
    gf.node_features =
        tensor::Tensor(1, 1, {static_cast<float>(value)});
    records.push_back(gf.Serialize());
  }
  return dfs->WriteDataset(dataset, records, std::max(1, config.output_parts));
}

agl::Result<std::vector<NodeRecord>> AugmentNodeTable(
    const std::vector<NodeRecord>& nodes, const AnalyticsResult& result) {
  std::vector<NodeRecord> augmented = nodes;
  // `result.values` is sorted by id; nodes may arrive in any order.
  for (NodeRecord& n : augmented) {
    auto it = std::lower_bound(
        result.values.begin(), result.values.end(), n.id,
        [](const std::pair<NodeId, double>& v, NodeId id) {
          return v.first < id;
        });
    if (it == result.values.end() || it->first != n.id) {
      return agl::Status::InvalidArgument(
          "AugmentNodeTable: no analytics value for node " +
          std::to_string(n.id));
    }
    n.features.push_back(static_cast<float>(it->second));
  }
  return augmented;
}

}  // namespace agl::analytics
