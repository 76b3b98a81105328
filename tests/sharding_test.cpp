// Sharded GraphFlat property suite: the pipeline's output must be
// invariant to the shard count. For every (seed, hops, S) the sharded run
// must produce byte-identical GraphFeatures — and identical feature stats
// — to the single-shard run, including when hub re-indexing and sampling
// are active and when task faults are injected into the per-shard jobs.
//
// The heavier seed sweep runs under the `sharding` CTest label
// (`ctest -L sharding`) with AGL_SHARDING_HEAVY=1 set by its CTest entry;
// see tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "flat/graphflat.h"
#include "flat/shard.h"
#include "mr/local_dfs.h"
#include "testing/graph_gen.h"
#include "trainer/feature_source.h"

namespace agl::flat {
namespace {

using subgraph::GraphFeature;
using testing::GeneratedGraph;
using testing::GraphGenOptions;
using testing::MakeGraph;

GraphGenOptions HubbyGraph(uint64_t seed) {
  GraphGenOptions opts;
  opts.topology = GraphGenOptions::Topology::kPowerLaw;
  opts.num_nodes = 60;
  opts.attach_edges = 3;
  opts.node_feature_dim = 4;
  opts.edge_feature_dim = 2;  // exercise the edge-feature matrix path
  opts.seed = seed;
  return opts;
}

/// Base config: small task counts so several tasks exist per shard, a hub
/// threshold low enough that power-law hubs trigger re-indexing every
/// round, and uniform sampling so the sampler's Rng draws are exercised.
GraphFlatConfig ShardedConfig(int hops, int num_shards) {
  GraphFlatConfig config;
  config.hops = hops;
  config.num_shards = num_shards;
  config.sampler = {sampling::Strategy::kUniform, 6};
  config.hub_threshold = 5;
  config.reindex_fanout = 3;
  config.job.num_workers = 4;
  config.job.num_map_tasks = 3;
  config.job.num_reduce_tasks = 5;
  return config;
}

std::vector<std::string> FeatureBytes(const std::vector<GraphFeature>& fs) {
  std::vector<std::string> bytes;
  bytes.reserve(fs.size());
  for (const GraphFeature& gf : fs) bytes.push_back(gf.Serialize());
  return bytes;  // RunGraphFlatInMemory sorts by target id
}

void ExpectFeatureStatsEqual(const GraphFlatStats& sharded,
                             const GraphFlatStats& single,
                             const std::string& context) {
  EXPECT_EQ(sharded.num_features, single.num_features) << context;
  EXPECT_EQ(sharded.total_nodes, single.total_nodes) << context;
  EXPECT_EQ(sharded.total_edges, single.total_edges) << context;
  EXPECT_EQ(sharded.max_nodes, single.max_nodes) << context;
}

TEST(ShardPlanTest, HomeShardIsDeterministicAndInRange) {
  ShardPlan plan(4);
  std::vector<int> counts(4, 0);
  for (NodeId id = 0; id < 200; ++id) {
    const int s = plan.HomeShardOf(id);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(s, plan.HomeShard(std::to_string(id)));
    EXPECT_EQ(s, plan.HomeShardOf(id));  // stable across calls
    counts[s]++;
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(counts[s], 0) << "shard " << s << " received no keys";
  }
  EXPECT_EQ(ShardPlan(1).HomeShard("12345"), 0);
}

TEST(ShardRouterTest, EdgesLandOnBothEndpointShards) {
  ShardPlan plan(3);
  ShardRouter router(plan);
  GeneratedGraph g = MakeGraph(HubbyGraph(7));
  ShardedTables tables = router.PartitionTables(g.nodes, g.edges);

  std::size_t total_nodes = 0;
  for (int s = 0; s < 3; ++s) {
    for (const NodeRecord& n : tables.nodes[s]) {
      EXPECT_EQ(plan.HomeShardOf(n.id), s);
    }
    total_nodes += tables.nodes[s].size();
  }
  EXPECT_EQ(total_nodes, g.nodes.size());

  std::size_t expected_edge_rows = 0;
  for (const EdgeRecord& e : g.edges) {
    expected_edge_rows +=
        plan.HomeShardOf(e.src) == plan.HomeShardOf(e.dst) ? 1 : 2;
  }
  std::size_t total_edges = 0;
  for (int s = 0; s < 3; ++s) {
    for (const EdgeRecord& e : tables.edges[s]) {
      EXPECT_TRUE(plan.HomeShardOf(e.src) == s || plan.HomeShardOf(e.dst) == s);
    }
    total_edges += tables.edges[s].size();
  }
  EXPECT_EQ(total_edges, expected_edge_rows);
}

TEST(ShardRouterTest, ExchangeRoutesEveryRecordHome) {
  ShardPlan plan(4);
  ShardRouter router(plan);
  std::vector<std::vector<mr::KeyValue>> scattered(4);
  for (int i = 0; i < 100; ++i) {
    std::string value("v");
    value += std::to_string(i);
    scattered[i % 4].push_back({std::to_string(i), std::move(value)});
  }
  auto routed = router.Exchange(std::move(scattered));
  ASSERT_EQ(routed.size(), 4u);
  std::size_t total = 0;
  for (int s = 0; s < 4; ++s) {
    for (const mr::KeyValue& kv : routed[s]) {
      EXPECT_EQ(plan.HomeShard(kv.key), s);
    }
    total += routed[s].size();
  }
  EXPECT_EQ(total, 100u);
}

// The tentpole property: sharded output is byte-identical to single-shard
// for seeds x hops{1,2,3} x S{1,2,4,7}, with hub re-indexing active.
TEST(ShardInvarianceTest, ByteIdenticalAcrossShardCounts) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    GeneratedGraph g = MakeGraph(HubbyGraph(seed));
    ASSERT_GT(g.max_in_degree, 5)  // hub threshold actually fires
        << "seed " << seed;
    for (int hops : {1, 2, 3}) {
      GraphFlatStats single_stats;
      auto single = RunGraphFlatInMemory(ShardedConfig(hops, 1), g.nodes,
                                         g.edges, &single_stats);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      ASSERT_FALSE(single->empty());
      const std::vector<std::string> reference = FeatureBytes(*single);
      for (int num_shards : {2, 4, 7}) {
        const std::string context = "seed " + std::to_string(seed) +
                                    " hops " + std::to_string(hops) +
                                    " shards " + std::to_string(num_shards);
        GraphFlatStats stats;
        auto sharded = RunGraphFlatInMemory(ShardedConfig(hops, num_shards),
                                            g.nodes, g.edges, &stats);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        const std::vector<std::string> bytes = FeatureBytes(*sharded);
        ASSERT_EQ(bytes.size(), reference.size()) << context;
        for (std::size_t i = 0; i < bytes.size(); ++i) {
          ASSERT_EQ(bytes[i], reference[i])
              << context << ", target " << (*sharded)[i].target_id;
        }
        ExpectFeatureStatsEqual(stats, single_stats, context);
      }
    }
  }
}

// Same property on a homogeneous (Erdős–Rényi) graph without sampling:
// full neighborhoods, no re-indexing.
TEST(ShardInvarianceTest, ByteIdenticalOnErdosRenyiWithoutSampling) {
  GraphGenOptions opts;
  opts.topology = GraphGenOptions::Topology::kErdosRenyi;
  opts.num_nodes = 50;
  opts.edge_prob = 0.05;
  opts.node_feature_dim = 3;
  opts.seed = 99;
  GeneratedGraph g = MakeGraph(opts);
  GraphFlatConfig config;
  config.hops = 2;
  config.hub_threshold = 0;  // re-indexing off
  config.job.num_reduce_tasks = 5;
  auto single = RunGraphFlatInMemory(config, g.nodes, g.edges);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  config.num_shards = 4;
  auto sharded = RunGraphFlatInMemory(config, g.nodes, g.edges);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_TRUE(FeatureBytes(*sharded) == FeatureBytes(*single));
}

// GraphFlatStats must aggregate across shards without double-counting
// boundary nodes, and job stats must cover every per-shard job.
TEST(ShardInvarianceTest, StatsAggregateAcrossShards) {
  GeneratedGraph g = MakeGraph(HubbyGraph(44));
  GraphFlatConfig config = ShardedConfig(2, 4);
  GraphFlatStats sharded_stats;
  auto sharded =
      RunGraphFlatInMemory(config, g.nodes, g.edges, &sharded_stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  config.num_shards = 1;
  GraphFlatStats single_stats;
  auto single = RunGraphFlatInMemory(config, g.nodes, g.edges, &single_stats);
  ASSERT_TRUE(single.ok());

  // A boundary node reached from several shards must still count once.
  ExpectFeatureStatsEqual(sharded_stats, single_stats, "stats");
  EXPECT_EQ(sharded_stats.num_features,
            static_cast<int64_t>(sharded->size()));

  // Job stats accumulate over all 4 shards: the map phase alone runs
  // num_map_tasks tasks per shard.
  EXPECT_EQ(sharded_stats.job_stats.map_tasks,
            4 * static_cast<int64_t>(config.job.num_map_tasks));
  EXPECT_GT(sharded_stats.job_stats.reduce_tasks,
            single_stats.job_stats.reduce_tasks);
}

// Deterministic task failures during the per-shard jobs must still yield
// the single-shard-equivalent output.
TEST(ShardInvarianceTest, FaultInjectionPreservesEquivalence) {
  GeneratedGraph g = MakeGraph(HubbyGraph(55));
  auto clean = RunGraphFlatInMemory(ShardedConfig(2, 1), g.nodes, g.edges);
  ASSERT_TRUE(clean.ok());

  GraphFlatConfig faulty = ShardedConfig(2, 4);
  fail::ScopedFailpoint map_fault("mr.map", fail::ErrorConfig(0.25));
  fail::ScopedFailpoint reduce_fault("mr.reduce", fail::ErrorConfig(0.25));
  faulty.job.max_task_attempts = 20;
  GraphFlatStats stats;
  auto sharded = RunGraphFlatInMemory(faulty, g.nodes, g.edges, &stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_GT(stats.job_stats.failed_attempts, 0);  // faults actually fired
  EXPECT_TRUE(FeatureBytes(*sharded) == FeatureBytes(*clean));
}

// DFS store path: per-shard part files are unified under one dataset with
// stable part numbering, the staging family is cleaned up, and readers see
// content identical to a single-shard dataset.
TEST(ShardInvarianceTest, DfsStoreUnifiesShardParts) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("agl_shard_dfs_" + std::to_string(::getpid())))
          .string();
  auto dfs = mr::LocalDfs::Open(root);
  ASSERT_TRUE(dfs.ok());
  GeneratedGraph g = MakeGraph(HubbyGraph(66));

  GraphFlatConfig config = ShardedConfig(2, 3);
  config.output_parts = 2;
  auto sharded_stats =
      RunGraphFlat(config, g.nodes, g.edges, &*dfs, "sharded");
  ASSERT_TRUE(sharded_stats.ok()) << sharded_stats.status().ToString();
  config.num_shards = 1;
  auto single_stats = RunGraphFlat(config, g.nodes, g.edges, &*dfs, "single");
  ASSERT_TRUE(single_stats.ok());
  ExpectFeatureStatsEqual(*sharded_stats, *single_stats, "dfs stats");

  // Stable numbering: 3 shards x 2 parts each, no staging datasets left.
  auto parts = dfs->ListParts("sharded");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 6u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_FALSE(dfs->DatasetExists(mr::ShardDatasetName("sharded", s)));
  }

  auto ReadSorted = [&](const std::string& dataset) {
    auto src = trainer::DfsFeatureSource::Open(*dfs, dataset);
    AGL_CHECK(src.ok());
    auto features = src->ReadAll();
    AGL_CHECK(features.ok());
    std::sort(features->begin(), features->end(),
              [](const GraphFeature& a, const GraphFeature& b) {
                return a.target_id < b.target_id;
              });
    return FeatureBytes(*features);
  };
  EXPECT_TRUE(ReadSorted("sharded") == ReadSorted("single"));
  std::filesystem::remove_all(root);
}

// Heavier seed sweep, scoped behind `ctest -L sharding` (the CTest entry
// sets AGL_SHARDING_HEAVY=1; a direct run of the binary skips it).
TEST(ShardSweepTest, SeedSweepAcrossShardCounts) {
  if (std::getenv("AGL_SHARDING_HEAVY") == nullptr) {
    GTEST_SKIP() << "set AGL_SHARDING_HEAVY=1 (or run `ctest -L sharding`)";
  }
  for (uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    GraphGenOptions opts = HubbyGraph(seed);
    opts.num_nodes = 120;
    opts.attach_edges = 4;
    GeneratedGraph g = MakeGraph(opts);
    for (int hops : {1, 2, 3}) {
      auto single = RunGraphFlatInMemory(ShardedConfig(hops, 1), g.nodes,
                                         g.edges);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      const std::vector<std::string> reference = FeatureBytes(*single);
      for (int num_shards : {2, 3, 4, 5, 7}) {
        auto sharded = RunGraphFlatInMemory(
            ShardedConfig(hops, num_shards), g.nodes, g.edges);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        EXPECT_TRUE(FeatureBytes(*sharded) == reference)
            << "seed " << seed << " hops " << hops << " shards "
            << num_shards;
      }
    }
  }
}

}  // namespace
}  // namespace agl::flat
