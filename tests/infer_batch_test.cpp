// Batched GraphInfer + cross-slice EmbeddingCache properties.
//
// The central property (ctest -L infer_batch): RunGraphInferBatched must
// produce *bit-identical* scores to running its target slices one by one
// through RunGraphInfer — for every (batch_slices, num_shards,
// cache_budget) combination, including budget 0 (cache disabled entirely)
// and unbounded, with the spill path engaged and with faults injected into
// it. The cache only ever substitutes a value the reducer would have
// recomputed byte-for-byte, so any divergence here is a real bug.
//
// The work is pinned as well: a pass evaluates each (node, round) pair its
// targets read at most once, only inside the horizon round + depth <= K,
// and nothing the store already holds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "common/failpoint.h"
#include "common/mutex.h"
#include "data/dataset.h"
#include "flat/table_graph.h"
#include "infer/embedding_cache.h"
#include "infer/graphinfer.h"
#include "infer/segmentation.h"

namespace agl::infer {
namespace {

data::Dataset SmallUug(int nodes, int attach_edges = 3) {
  data::UugLikeOptions opts;
  opts.num_nodes = nodes;
  opts.feature_dim = 6;
  opts.attach_edges = attach_edges;
  opts.train_size = nodes / 2;
  opts.val_size = nodes / 8;
  opts.test_size = nodes / 8;
  return data::MakeUugLike(opts);
}

gnn::ModelConfig SmallModel(gnn::ModelType type, int layers, int64_t in_dim) {
  gnn::ModelConfig config;
  config.type = type;
  config.num_layers = layers;
  config.in_dim = in_dim;
  config.hidden_dim = 5;
  config.out_dim = 2;
  config.seed = 17;
  return config;
}

std::vector<flat::NodeId> AllIds(const data::Dataset& ds) {
  std::vector<flat::NodeId> ids;
  ids.reserve(ds.nodes.size());
  for (const auto& n : ds.nodes) ids.push_back(n.id);
  return ids;
}

/// In-BFS depth of every node within `layers` hops of `targets`.
std::unordered_map<flat::NodeId, int> Depths(
    const flat::TableGraph& graph, const std::vector<flat::NodeId>& targets,
    int layers) {
  std::vector<std::pair<flat::NodeId, int>> seeds;
  for (flat::NodeId t : targets) seeds.emplace_back(t, 0);
  return graph.Levels(seeds, flat::TableGraph::Direction::kIn, layers);
}

/// The evaluations of a pass without a store, in closed form: a node at
/// in-depth d < K from its slice's targets is evaluated at rounds 1..K-d.
int64_t UncachedEvaluations(const data::Dataset& ds,
                            const std::vector<flat::NodeId>& targets,
                            int batch_slices, int layers) {
  const flat::TableGraph graph(ds.nodes, ds.edges);
  int64_t total = 0;
  for (const auto& slice : PartitionTargets(targets, batch_slices)) {
    for (const auto& [id, depth] : Depths(graph, slice, layers)) {
      total += layers - depth;
    }
  }
  return total;
}

/// The unbatched reference: each slice through its own RunGraphInfer call
/// (no cache exists on this path), results concatenated and sorted.
agl::Result<InferResult> RunSliceBySlice(
    InferConfig config, const std::map<std::string, tensor::Tensor>& state,
    const data::Dataset& ds, const std::vector<flat::NodeId>& targets,
    int batch_slices) {
  InferResult combined;
  combined.num_slices = 0;
  for (const auto& slice : PartitionTargets(targets, batch_slices)) {
    config.target_ids = slice;
    AGL_ASSIGN_OR_RETURN(InferResult r,
                         RunGraphInfer(config, state, ds.nodes, ds.edges));
    combined.costs.embedding_evaluations += r.costs.embedding_evaluations;
    combined.scores.insert(combined.scores.end(),
                           std::make_move_iterator(r.scores.begin()),
                           std::make_move_iterator(r.scores.end()));
    ++combined.num_slices;
  }
  std::sort(combined.scores.begin(), combined.scores.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return combined;
}

void ExpectScoresIdentical(const InferResult& batched,
                           const InferResult& reference,
                           const std::string& what) {
  ASSERT_EQ(batched.scores.size(), reference.scores.size()) << what;
  for (std::size_t i = 0; i < batched.scores.size(); ++i) {
    EXPECT_EQ(batched.scores[i].first, reference.scores[i].first) << what;
    EXPECT_EQ(batched.scores[i].second, reference.scores[i].second)
        << what << " node " << reference.scores[i].first;
  }
}

TEST(PartitionTargetsTest, ContiguousDedupedBalanced) {
  const std::vector<flat::NodeId> targets = {5, 3, 5, 9, 1, 3, 7};
  auto slices = PartitionTargets(targets, 2);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0], (std::vector<flat::NodeId>{5, 3, 9}));
  EXPECT_EQ(slices[1], (std::vector<flat::NodeId>{1, 7}));
  // More slices than (unique) targets: one singleton slice each.
  slices = PartitionTargets(targets, 50);
  EXPECT_EQ(slices.size(), 5u);
  for (const auto& s : slices) EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(PartitionTargets({}, 4).empty());
  // Non-positive slice counts clamp to one slice.
  EXPECT_EQ(PartitionTargets(targets, 0).size(), 1u);
}

class BatchedSweepTest
    : public ::testing::TestWithParam<std::tuple<gnn::ModelType, int>> {};

TEST_P(BatchedSweepTest, BitExactAcrossSlicesShardsAndBudgets) {
  const auto [type, layers] = GetParam();
  data::Dataset ds = SmallUug(60);
  gnn::ModelConfig mconfig = SmallModel(type, layers, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();
  const std::vector<flat::NodeId> targets = AllIds(ds);

  for (int batch_slices : {1, 3, 5}) {
    InferConfig base;
    base.model = mconfig;
    base.job.num_reduce_tasks = 5;
    auto reference =
        RunSliceBySlice(base, state, ds, targets, batch_slices);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (int num_shards : {1, 3}) {
      // Budgets: disabled, eviction-heavy tiny, unbounded.
      for (int64_t budget : {int64_t{0}, int64_t{1024}, int64_t{-1}}) {
        InferConfig config = base;
        config.num_shards = num_shards;
        config.batch_slices = batch_slices;
        config.cache_budget_bytes = budget;
        auto batched =
            RunGraphInferBatched(config, state, ds.nodes, ds.edges);
        ASSERT_TRUE(batched.ok()) << batched.status().ToString();
        const std::string what =
            std::string(gnn::ModelTypeName(type)) + " layers=" +
            std::to_string(layers) + " B=" + std::to_string(batch_slices) +
            " S=" + std::to_string(num_shards) +
            " budget=" + std::to_string(budget);
        EXPECT_EQ(batched->num_slices, reference->num_slices) << what;
        ExpectScoresIdentical(*batched, *reference, what);
        const int64_t uncached =
            UncachedEvaluations(ds, targets, batch_slices, layers);
        EXPECT_EQ(reference->costs.embedding_evaluations, uncached) << what;
        if (budget == 0) {
          // Cache disabled: identical work to the slice-by-slice runs.
          EXPECT_EQ(batched->costs.embedding_evaluations, uncached) << what;
          EXPECT_EQ(batched->costs.cache_hits, 0) << what;
          EXPECT_EQ(batched->costs.cache_misses, 0) << what;
        } else {
          // Cached: never more work than without the store.
          EXPECT_LE(batched->costs.embedding_evaluations, uncached) << what;
        }
        if (budget < 0 && type != gnn::ModelType::kGcn) {
          // Unbounded: no (node, round) pair is evaluated twice, so no
          // more evaluations than there are pairs.
          EXPECT_LE(batched->costs.embedding_evaluations,
                    static_cast<int64_t>(ds.nodes.size()) * layers)
              << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, BatchedSweepTest,
    ::testing::Combine(::testing::Values(gnn::ModelType::kGraphSage,
                                         gnn::ModelType::kGat,
                                         gnn::ModelType::kGcn),
                       ::testing::Values(1, 2)));

TEST(BatchedInferTest, CacheSavesEvaluationsOnOverlappingSlices) {
  data::Dataset ds = SmallUug(80, 4);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  InferConfig config;
  config.model = mconfig;
  config.batch_slices = 4;

  config.cache_budget_bytes = 0;
  auto independent = RunGraphInferBatched(config, state, ds.nodes, ds.edges);
  ASSERT_TRUE(independent.ok()) << independent.status().ToString();

  config.cache_budget_bytes = -1;  // unbounded
  auto cached = RunGraphInferBatched(config, state, ds.nodes, ds.edges);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();

  ExpectScoresIdentical(*cached, *independent, "cached vs independent");
  EXPECT_EQ(independent->costs.embedding_evaluations,
            UncachedEvaluations(ds, AllIds(ds), 4, 2));
  EXPECT_GT(cached->costs.cache_hits, 0);
  EXPECT_GT(cached->costs.cache_misses, 0);
  EXPECT_LT(cached->costs.embedding_evaluations,
            independent->costs.embedding_evaluations);
  // The unbounded cache evaluates every (node, round) pair exactly once:
  // every node is a target, so every pair is read.
  EXPECT_EQ(cached->costs.embedding_evaluations,
            static_cast<int64_t>(ds.nodes.size()) * 2);
}

/// An EmbeddingStore that forwards to an EmbeddingCache and counts its
/// traffic per (node, round) pair.
class CountingStore : public EmbeddingStore {
 public:
  using Pair = std::pair<uint64_t, int32_t>;

  explicit CountingStore(int64_t budget) : inner_(budget) {}

  bool enabled() const override { return inner_.enabled(); }
  bool Lookup(const CacheKey& key, std::vector<float>* out) override {
    {
      common::MutexLock lock(&mu_);
      ++lookups_[{key.node, key.round}];
    }
    return inner_.Lookup(key, out);
  }
  void Insert(const CacheKey& key,
              const std::vector<float>& embedding) override {
    {
      common::MutexLock lock(&mu_);
      ++inserts_[{key.node, key.round}];
    }
    inner_.Insert(key, embedding);
  }
  void Invalidate(uint64_t node, int32_t min_round) override {
    inner_.Invalidate(node, min_round);
  }
  EmbeddingCacheStats stats() const override { return inner_.stats(); }

  /// Hands out the counts since the last call and starts new ones.
  std::pair<std::map<Pair, int>, std::map<Pair, int>> TakeCounts() {
    common::MutexLock lock(&mu_);
    return {std::exchange(lookups_, {}), std::exchange(inserts_, {})};
  }

 private:
  EmbeddingCache inner_;
  common::Mutex mu_;
  std::map<Pair, int> lookups_ GUARDED_BY(mu_);
  std::map<Pair, int> inserts_ GUARDED_BY(mu_);
};

struct Pass {
  std::vector<flat::NodeId> targets;
  int batch_slices = 1;
};

// Three passes over one store, each over targets that overlap the earlier
// ones: a pass looks up each pair at most once, only inside its slices'
// horizon, and evaluates (= inserts) only pairs no earlier pass stored.
TEST(BatchedInferTest, WalkReadsEachPairOnceInsideTheHorizon) {
  data::Dataset ds = SmallUug(70, 3);
  const flat::TableGraph graph(ds.nodes, ds.edges);
  const std::vector<flat::NodeId> all = AllIds(ds);
  for (gnn::ModelType type :
       {gnn::ModelType::kGraphSage, gnn::ModelType::kGat}) {
    for (int layers : {2, 3}) {
      const std::string what = std::string(gnn::ModelTypeName(type)) +
                               " layers=" + std::to_string(layers);
      gnn::ModelConfig mconfig = SmallModel(type, layers, ds.feature_dim);
      const auto state = gnn::GnnModel(mconfig).StateDict();
      auto slices = SegmentModel(state, mconfig);
      ASSERT_TRUE(slices.ok()) << slices.status().ToString();
      CountingStore store(-1);
      std::set<CountingStore::Pair> evaluated;
      const std::vector<Pass> passes = {
          {{all[3], all[17], all[42]}, 1},
          {{all[17], all[5], all[60], all[3], all[33]}, 1},
          {{all.begin(), all.begin() + 40}, 3},
      };
      for (std::size_t i = 0; i < passes.size(); ++i) {
        SCOPED_TRACE(what + " pass " + std::to_string(i));
        InferConfig config;
        config.model = mconfig;
        config.job.num_workers = 2;
        config.target_ids = passes[i].targets;
        config.batch_slices = passes[i].batch_slices;
        auto result = RunGraphInferBatched(
            config, *slices, StateFingerprint(state), graph, &store);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        auto reference = RunSliceBySlice(config, state, ds,
                                         passes[i].targets,
                                         passes[i].batch_slices);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        ExpectScoresIdentical(*result, *reference, what);

        // A pair may be read once per slice, at round + depth <= K for the
        // depth from that slice's targets.
        const auto target_slices =
            PartitionTargets(passes[i].targets, passes[i].batch_slices);
        std::vector<std::unordered_map<flat::NodeId, int>> depths;
        for (const auto& slice : target_slices) {
          depths.push_back(Depths(graph, slice, layers));
        }
        const auto [lookups, inserts] = store.TakeCounts();
        int64_t total_lookups = 0;
        for (const auto& [pair, count] : lookups) {
          total_lookups += count;
          int inside = 0;
          for (const auto& depth : depths) {
            auto it = depth.find(pair.first);
            if (it != depth.end() && pair.second + it->second <= layers) {
              ++inside;
            }
          }
          EXPECT_GE(pair.second, 1) << "node " << pair.first;
          EXPECT_GE(inside, count) << "node " << pair.first << " round "
                                   << pair.second << " read " << count
                                   << "x by " << inside << " slice(s)";
          if (passes[i].batch_slices == 1) {
            EXPECT_EQ(count, 1) << "node " << pair.first;
          }
        }
        EXPECT_EQ(total_lookups,
                  result->costs.cache_hits + result->costs.cache_misses);
        int64_t total_inserts = 0;
        for (const auto& [pair, count] : inserts) {
          total_inserts += count;
          EXPECT_EQ(count, 1) << "node " << pair.first;
          EXPECT_TRUE(evaluated.insert(pair).second)
              << "node " << pair.first << " round " << pair.second
              << " evaluated again";
        }
        EXPECT_EQ(total_inserts, result->costs.embedding_evaluations);
      }
    }
  }
}

// Once every target's round-K value is stored, a pass applies the
// prediction slice to the stored bytes: no evaluation and no MapReduce
// round — every reduce task fails while it runs — with the cold scores.
// GCN takes the store only over a cut that keeps the whole graph, hence
// all nodes as targets there.
TEST(BatchedInferTest, StoredTargetsRunNoEvaluationAndNoRound) {
  data::Dataset ds = SmallUug(50, 3);
  const flat::TableGraph graph(ds.nodes, ds.edges);
  const std::vector<flat::NodeId> all = AllIds(ds);
  const std::vector<flat::NodeId> some = {all[4], all[9], all[30], all[31]};
  for (gnn::ModelType type :
       {gnn::ModelType::kGraphSage, gnn::ModelType::kGat,
        gnn::ModelType::kGcn}) {
    SCOPED_TRACE(gnn::ModelTypeName(type));
    gnn::ModelConfig mconfig = SmallModel(type, 2, ds.feature_dim);
    const auto state = gnn::GnnModel(mconfig).StateDict();
    auto slices = SegmentModel(state, mconfig);
    ASSERT_TRUE(slices.ok()) << slices.status().ToString();
    const std::vector<flat::NodeId>& warm =
        type == gnn::ModelType::kGcn ? all : some;
    InferConfig config;
    config.model = mconfig;
    config.target_ids = warm;
    config.job.max_task_attempts = 1;
    EmbeddingCache store(-1);
    auto cold = RunGraphInferBatched(config, *slices,
                                     StateFingerprint(state), graph, &store);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_GT(cold->costs.embedding_evaluations, 0);
    auto reference = RunSliceBySlice(config, state, ds, warm, 1);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ExpectScoresIdentical(*cold, *reference, "cold pass");

    fail::ScopedFailpoint no_reduce("mr.reduce", fail::ErrorConfig(1.0));
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto warm_pass = RunGraphInferBatched(
          config, *slices, StateFingerprint(state), graph, &store);
      ASSERT_TRUE(warm_pass.ok()) << warm_pass.status().ToString();
      EXPECT_EQ(warm_pass->costs.embedding_evaluations, 0);
      EXPECT_EQ(warm_pass->costs.cache_hits,
                static_cast<int64_t>(warm.size()));
      EXPECT_EQ(warm_pass->costs.cache_misses, 0);
      ExpectScoresIdentical(*warm_pass, *reference, "warm pass");
    }
    // The failpoint does fail a pass that has to evaluate.
    EmbeddingCache empty(-1);
    EXPECT_FALSE(RunGraphInferBatched(config, *slices,
                                      StateFingerprint(state), graph, &empty)
                     .ok());
  }
}

TEST(BatchedInferTest, ExplicitTargetSubsetWithDuplicates) {
  data::Dataset ds = SmallUug(70);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGat, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  std::vector<flat::NodeId> targets = {ds.nodes[3].id,  ds.nodes[17].id,
                                       ds.nodes[3].id,  ds.nodes[42].id,
                                       ds.nodes[55].id, ds.nodes[17].id};
  InferConfig config;
  config.model = mconfig;
  config.target_ids = targets;
  config.batch_slices = 2;
  config.cache_budget_bytes = -1;
  auto batched = RunGraphInferBatched(config, state, ds.nodes, ds.edges);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->scores.size(), 4u);  // deduplicated targets

  InferConfig unbatched = config;
  unbatched.batch_slices = 1;
  unbatched.cache_budget_bytes = 0;
  auto reference = RunSliceBySlice(unbatched, state, ds, targets, 2);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectScoresIdentical(*batched, *reference, "subset targets");
}

TEST(BatchedInferTest, SpillServesHitsUnderTinyBudget) {
  data::Dataset ds = SmallUug(80, 4);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  InferConfig config;
  config.model = mconfig;
  config.batch_slices = 6;

  config.cache_budget_bytes = 0;
  auto independent = RunGraphInferBatched(config, state, ds.nodes, ds.edges);
  ASSERT_TRUE(independent.ok());

  // A budget far below the working set (one entry is ~84 bytes) with a
  // spill file: evictions spill, later slices read them back.
  config.cache_budget_bytes = 512;
  config.cache_spill_path =
      ::testing::TempDir() + "/infer_batch_spill.records";
  auto spilled = RunGraphInferBatched(config, state, ds.nodes, ds.edges);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();

  ExpectScoresIdentical(*spilled, *independent, "spill vs independent");
  EXPECT_GT(spilled->costs.cache_evictions, 0);
  EXPECT_GT(spilled->costs.cache_spilled, 0);
  EXPECT_GT(spilled->costs.cache_spill_hits, 0);
  EXPECT_LT(spilled->costs.embedding_evaluations,
            independent->costs.embedding_evaluations);
}

TEST(BatchedInferTest, SpillFaultInjectionDegradesToRecompute) {
  data::Dataset ds = SmallUug(70, 4);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGat, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  InferConfig config;
  config.model = mconfig;
  config.batch_slices = 5;

  config.cache_budget_bytes = 0;
  auto independent = RunGraphInferBatched(config, state, ds.nodes, ds.edges);
  ASSERT_TRUE(independent.ok());

  // Tiny budget + spill, with spill writes/reads failing at 40%, plus
  // MapReduce task-level fault injection on top: the cache must degrade to
  // recomputation, never to a different score.
  config.cache_budget_bytes = 768;
  config.cache_spill_path =
      ::testing::TempDir() + "/infer_batch_spill_faulty.records";
  fail::ScopedFailpoint spill_fault(
      "infer.spill", fail::ErrorConfig(0.4, StatusCode::kIoError));
  fail::ScopedFailpoint map_fault("mr.map", fail::ErrorConfig(0.2));
  fail::ScopedFailpoint reduce_fault("mr.reduce", fail::ErrorConfig(0.2));
  config.job.max_task_attempts = 15;
  auto faulty = RunGraphInferBatched(config, state, ds.nodes, ds.edges);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  ExpectScoresIdentical(*faulty, *independent, "faulty spill");
  EXPECT_GT(faulty->costs.cache_spill_failures, 0);
}

TEST(EmbeddingCacheTest, LruEvictsLeastRecentlyUsed) {
  // Budget fits exactly two entries (2 floats = 8 bytes payload + 64
  // overhead each).
  EmbeddingCache cache(2 * (8 + 64));
  const std::vector<float> emb{1.f, 2.f};
  cache.Insert({1, 1, 7}, emb);
  cache.Insert({2, 1, 7}, emb);
  std::vector<float> out;
  ASSERT_TRUE(cache.Lookup({1, 1, 7}, &out));  // touch 1: now 2 is LRU
  cache.Insert({3, 1, 7}, emb);                // evicts 2
  EXPECT_TRUE(cache.Lookup({1, 1, 7}, &out));
  EXPECT_FALSE(cache.Lookup({2, 1, 7}, &out));
  EXPECT_TRUE(cache.Lookup({3, 1, 7}, &out));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.resident_entries, 2);
}

TEST(EmbeddingCacheTest, VersionAndRoundArePartOfTheKey) {
  EmbeddingCache cache(-1);
  cache.Insert({1, 1, 7}, {1.f});
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup({1, 1, 8}, &out));  // other model version
  EXPECT_FALSE(cache.Lookup({1, 2, 7}, &out));  // other round
  EXPECT_TRUE(cache.Lookup({1, 1, 7}, &out));
  EXPECT_EQ(out, (std::vector<float>{1.f}));
}

TEST(EmbeddingCacheTest, DisabledCacheDoesNothing) {
  EmbeddingCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert({1, 1, 7}, {1.f});
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup({1, 1, 7}, &out));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.inserts, 0);
  EXPECT_EQ(stats.misses, 0);
}

TEST(EmbeddingCacheTest, SpillRoundTripsEvictedEntries) {
  EmbeddingCache cache(8 + 64);  // budget: a single one-float entry
  ASSERT_TRUE(
      cache.EnableSpill(::testing::TempDir() + "/cache_spill_unit.records")
          .ok());
  cache.Insert({1, 1, 7}, {1.5f, -2.5f});  // oversized: spills immediately
  cache.Insert({2, 1, 7}, {3.f});
  std::vector<float> out;
  ASSERT_TRUE(cache.Lookup({1, 1, 7}, &out));  // served from the spill file
  EXPECT_EQ(out, (std::vector<float>{1.5f, -2.5f}));
  const auto stats = cache.stats();
  EXPECT_GT(stats.spilled, 0);
  EXPECT_EQ(stats.spill_hits, 1);
  EXPECT_EQ(stats.spill_failures, 0);
}

TEST(EmbeddingCacheTest, TruncatedSpillFileDegradesToMiss) {
  const std::string path =
      ::testing::TempDir() + "/cache_spill_truncated.records";
  EmbeddingCache cache(8 + 64);
  ASSERT_TRUE(cache.EnableSpill(path).ok());
  cache.Insert({1, 1, 7}, {1.f, 2.f, 3.f});  // evicted + spilled
  cache.Insert({2, 1, 7}, {4.f});
  ASSERT_GT(cache.stats().spilled, 0);
  // Spill writes are batched, so push them to disk first — otherwise the
  // truncation below hits an empty file and the lazy pre-read flush would
  // just re-materialize the record from the writer's buffer.
  ASSERT_TRUE(cache.PublishSpill().ok());
  // Corrupt the spill file: keep only its first 3 bytes (mid-record).
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
#if defined(_WIN32)
    ASSERT_EQ(_chsize(_fileno(f), 3), 0);
#else
    ASSERT_EQ(ftruncate(fileno(f), 3), 0);
#endif
    std::fclose(f);
  }
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup({1, 1, 7}, &out));  // corruption -> plain miss
  const auto stats = cache.stats();
  EXPECT_GT(stats.spill_failures, 0);
  EXPECT_EQ(stats.spill_hits, 0);
}

struct KeyLess {
  bool operator()(const CacheKey& a, const CacheKey& b) const {
    return std::tie(a.node, a.round, a.version) <
           std::tie(b.node, b.round, b.version);
  }
};
using KeyMap = std::map<CacheKey, std::vector<float>, KeyLess>;

/// Brute-force model of EmbeddingCache: the same LRU, budget and spill
/// bookkeeping, but Invalidate scans every key it holds.
class ReferenceCache {
 public:
  explicit ReferenceCache(int64_t budget) : budget_(budget) {}

  bool Lookup(const CacheKey& key, std::vector<float>* out) {
    if (auto it = Find(key); it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
      *out = it->second;
      return true;
    }
    if (auto it = spilled_.find(key); it != spilled_.end()) {
      ++stats.spill_hits;
      *out = it->second;
      Admit(key, it->second);
      return true;
    }
    return false;
  }

  void Insert(const CacheKey& key, const std::vector<float>& embedding) {
    if (auto it = Find(key); it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
    } else {
      Admit(key, embedding);
    }
  }

  void Invalidate(uint64_t node, int32_t min_round) {
    auto stale = [&](const CacheKey& k) {
      return k.node == node && k.round >= min_round;
    };
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (stale(it->first)) {
        stats.resident_bytes -= Bytes(it->second);
        it = lru_.erase(it);
        ++stats.invalidations;
      } else {
        ++it;
      }
    }
    for (auto it = spilled_.begin(); it != spilled_.end();) {
      if (stale(it->first)) {
        it = spilled_.erase(it);
        ++stats.invalidations;
      } else {
        ++it;
      }
    }
  }

  /// PublishSpill: every resident entry gets a spill slot; returns what a
  /// restore of the snapshot would serve.
  KeyMap Publish() {
    for (const auto& [key, embedding] : lru_) spilled_.emplace(key, embedding);
    return spilled_;
  }

  /// A fresh cache restored from `published`.
  void Restore(const KeyMap& published) {
    lru_.clear();
    spilled_ = published;
    stats = {};
  }

  EmbeddingCacheStats stats;

 private:
  static int64_t Bytes(const std::vector<float>& v) {
    return static_cast<int64_t>(v.size() * sizeof(float)) + 64;
  }

  std::list<std::pair<CacheKey, std::vector<float>>>::iterator Find(
      const CacheKey& key) {
    return std::find_if(lru_.begin(), lru_.end(),
                        [&](const auto& e) { return e.first == key; });
  }

  void Admit(const CacheKey& key, std::vector<float> embedding) {
    stats.resident_bytes += Bytes(embedding);
    lru_.emplace_front(key, std::move(embedding));
    while (stats.resident_bytes > budget_ && !lru_.empty()) {
      spilled_.emplace(lru_.back().first, lru_.back().second);
      stats.resident_bytes -= Bytes(lru_.back().second);
      lru_.pop_back();
      ++stats.evictions;
    }
  }

  const int64_t budget_;
  std::list<std::pair<CacheKey, std::vector<float>>> lru_;  // front = MRU
  KeyMap spilled_;
};

// Invalidate probes (node, round, version) keys instead of scanning the
// store. Differential check against the scanning reference over random
// Insert / Lookup / Invalidate / PublishSpill / RestoreSpill sequences:
// a budget of ~3 entries so evictions spill, two model versions, rounds
// 1..3, and restores into a fresh cache whose only keys came from the
// snapshot.
TEST(EmbeddingCacheTest, InvalidateMatchesScanningReference) {
  const int64_t budget = 3 * (8 + 64);
  const std::string path = ::testing::TempDir() + "/cache_invalidate_" +
                           std::to_string(::getpid()) + ".records";
  auto value_of = [](const CacheKey& k) {
    std::vector<float> v(1 + (k.node + k.round + k.version) % 3);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(k.node * 100 + k.round * 10 + k.version + i);
    }
    return v;
  };
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    std::mt19937 rng(seed);
    auto cache = std::make_unique<EmbeddingCache>(budget);
    ASSERT_TRUE(cache->EnableSpill(path).ok());
    ReferenceCache reference(budget);
    std::optional<SpillSnapshot> snapshot;
    KeyMap published;
    for (int step = 0; step < 400; ++step) {
      const CacheKey key{rng() % 6, static_cast<int32_t>(1 + rng() % 3),
                         7 + rng() % 2};
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const uint32_t op = rng() % 100;
      if (op < 40) {
        cache->Insert(key, value_of(key));
        reference.Insert(key, value_of(key));
      } else if (op < 70) {
        std::vector<float> got, want;
        const bool hit = cache->Lookup(key, &got);
        ASSERT_EQ(hit, reference.Lookup(key, &want)) << where;
        if (hit) {
          ASSERT_EQ(got, want) << where;
        }
      } else if (op < 85) {
        const auto min_round = static_cast<int32_t>(rng() % 5);
        cache->Invalidate(key.node, min_round);
        reference.Invalidate(key.node, min_round);
      } else if (op < 93) {
        auto snap = cache->PublishSpill();
        ASSERT_TRUE(snap.ok()) << snap.status().ToString();
        snapshot = *snap;
        published = reference.Publish();
      } else if (snapshot.has_value()) {
        cache.reset();
        cache = std::make_unique<EmbeddingCache>(budget);
        ASSERT_TRUE(cache->RestoreSpill(path, *snapshot).ok()) << where;
        reference.Restore(published);
      }
      const EmbeddingCacheStats got = cache->stats();
      ASSERT_EQ(got.invalidations, reference.stats.invalidations) << where;
      ASSERT_EQ(got.evictions, reference.stats.evictions) << where;
      ASSERT_EQ(got.spill_hits, reference.stats.spill_hits) << where;
      ASSERT_EQ(got.resident_bytes, reference.stats.resident_bytes) << where;
      ASSERT_EQ(got.spill_failures, 0) << where;
    }
    // Every key, once more: resident or spilled exactly where the
    // reference says.
    for (uint64_t node = 0; node < 6; ++node) {
      for (int32_t round = 1; round <= 3; ++round) {
        for (uint64_t version : {7, 8}) {
          std::vector<float> got, want;
          const CacheKey key{node, round, version};
          const bool hit = cache->Lookup(key, &got);
          ASSERT_EQ(hit, reference.Lookup(key, &want));
          if (hit) {
            ASSERT_EQ(got, want);
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

// Heavier nightly-style sweep, enabled via AGL_INFER_BATCH_HEAVY (the
// infer_batch_sweep ctest entry sets it; a direct binary run skips).
TEST(BatchedSweepHeavyTest, WiderMatrix) {
  if (std::getenv("AGL_INFER_BATCH_HEAVY") == nullptr) {
    GTEST_SKIP() << "set AGL_INFER_BATCH_HEAVY=1 to run the heavy sweep";
  }
  for (int nodes : {40, 90}) {
    data::Dataset ds = SmallUug(nodes, 4);
    const std::vector<flat::NodeId> targets = AllIds(ds);
    for (gnn::ModelType type :
         {gnn::ModelType::kGcn, gnn::ModelType::kGraphSage,
          gnn::ModelType::kGat}) {
      for (int layers : {1, 3}) {
        gnn::ModelConfig mconfig = SmallModel(type, layers, ds.feature_dim);
        gnn::GnnModel model(mconfig);
        const auto state = model.StateDict();
        for (int batch_slices : {2, 7}) {
          InferConfig base;
          base.model = mconfig;
          auto reference =
              RunSliceBySlice(base, state, ds, targets, batch_slices);
          ASSERT_TRUE(reference.ok()) << reference.status().ToString();
          for (int num_shards : {1, 4}) {
            for (int64_t budget :
                 {int64_t{0}, int64_t{512}, int64_t{4096}, int64_t{-1}}) {
              InferConfig config = base;
              config.num_shards = num_shards;
              config.batch_slices = batch_slices;
              config.cache_budget_bytes = budget;
              if (budget > 0) {
                config.cache_spill_path =
                    ::testing::TempDir() + "/infer_batch_heavy.records";
              }
              auto batched =
                  RunGraphInferBatched(config, state, ds.nodes, ds.edges);
              ASSERT_TRUE(batched.ok()) << batched.status().ToString();
              ExpectScoresIdentical(
                  *batched, *reference,
                  std::string(gnn::ModelTypeName(type)) + " n=" +
                      std::to_string(nodes) + " L=" +
                      std::to_string(layers) + " B=" +
                      std::to_string(batch_slices) + " S=" +
                      std::to_string(num_shards) + " budget=" +
                      std::to_string(budget));
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace agl::infer
