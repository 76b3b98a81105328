// Differential-oracle and shard-count-invariance harness for the
// vertex-program analytics layer (`ctest -L analytics`).
//
// Two independent implementations are compared for each shipped program:
// the sharded GAS engine (src/analytics) against a naive single-threaded
// textbook oracle (tests/testing/reference_analytics — power iteration,
// union-find, Dijkstra, synchronous label propagation). CC/SSSP/LP must
// match bitwise; PageRank within a 1e-6 band (the engine stops on a
// per-vertex activation tolerance, the oracle on a global residual).
// Separately, every program must produce byte-identical SerializeValues()
// output for every shard count — with and without injected MR faults.
// The wider seed sweep runs under AGL_ANALYTICS_HEAVY=1 (set by the
// `analytics_sweep` CTest entry, mirroring sharding_sweep).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "analytics/programs.h"
#include "analytics/vertex_program.h"
#include "common/failpoint.h"
#include "mr/local_dfs.h"
#include "subgraph/graph_feature.h"
#include "testing/graph_gen.h"
#include "testing/reference_analytics.h"

namespace agl::analytics {
namespace {

using testing::AnalyticsValues;
using testing::GeneratedGraph;
using testing::GraphGenOptions;
using testing::MakeGraph;

AnalyticsConfig BaseConfig(int num_shards) {
  AnalyticsConfig config;
  config.max_supersteps = 200;
  config.num_shards = num_shards;
  config.job.num_workers = 4;
  config.job.num_map_tasks = 3;
  config.job.num_reduce_tasks = 5;
  return config;
}

// The five graph families of the differential matrix.
GraphGenOptions PowerLaw(uint64_t seed) {
  GraphGenOptions opt;
  opt.seed = seed;
  return opt;
}

GraphGenOptions ErdosRenyi(uint64_t seed) {
  GraphGenOptions opt;
  opt.topology = GraphGenOptions::Topology::kErdosRenyi;
  opt.edge_prob = 0.06;
  opt.seed = seed;
  return opt;
}

GraphGenOptions Disconnected(uint64_t seed) {
  GraphGenOptions opt;
  opt.topology = GraphGenOptions::Topology::kErdosRenyi;
  opt.num_nodes = 48;
  opt.edge_prob = 0.12;
  opt.num_components = 3;
  opt.seed = seed;
  return opt;
}

GraphGenOptions SelfLoops(uint64_t seed) {
  GraphGenOptions opt;
  opt.self_loop_prob = 0.4;
  opt.seed = seed;
  return opt;
}

GraphGenOptions EmptyEdges(uint64_t seed) {
  GraphGenOptions opt;
  opt.topology = GraphGenOptions::Topology::kErdosRenyi;
  opt.edge_prob = 0.0;
  opt.num_nodes = 24;
  opt.seed = seed;
  return opt;
}

std::vector<GraphGenOptions> AllFamilies(uint64_t seed) {
  return {PowerLaw(seed), ErdosRenyi(seed), Disconnected(seed),
          SelfLoops(seed), EmptyEdges(seed)};
}

AnalyticsResult MustRun(const VertexProgram& program, const GeneratedGraph& g,
                        int num_shards, int max_supersteps = 200) {
  AnalyticsConfig config = BaseConfig(num_shards);
  config.max_supersteps = max_supersteps;
  auto result = RunVertexProgram(config, program, g.nodes, g.edges);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(*result) : AnalyticsResult{};
}

void ExpectExactMatch(const AnalyticsResult& engine,
                      const AnalyticsValues& oracle, const std::string& what) {
  ASSERT_EQ(engine.values.size(), oracle.size()) << what;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(engine.values[i].first, oracle[i].first) << what << " #" << i;
    EXPECT_EQ(engine.values[i].second, oracle[i].second)
        << what << " vertex " << oracle[i].first;
  }
}

// --- Differential tests: engine vs oracle -------------------------------

TEST(AnalyticsDifferentialTest, PageRankMatchesOracleWithinTolerance) {
  PageRankProgram program(0.85, 1e-10);
  for (uint64_t seed : {1u, 2u}) {
    for (const GraphGenOptions& family : AllFamilies(seed)) {
      GeneratedGraph g = MakeGraph(family);
      AnalyticsResult engine = MustRun(program, g, 1);
      EXPECT_TRUE(engine.stats.converged);
      AnalyticsValues oracle =
          testing::ReferencePageRank(g.nodes, g.edges, 0.85, 1e-13, 20000);
      ASSERT_EQ(engine.values.size(), oracle.size());
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(engine.values[i].first, oracle[i].first);
        EXPECT_NEAR(engine.values[i].second, oracle[i].second, 1e-6)
            << "vertex " << oracle[i].first << " seed " << seed;
      }
    }
  }
}

TEST(AnalyticsDifferentialTest, ConnectedComponentsMatchesOracleExactly) {
  ConnectedComponentsProgram program;
  for (uint64_t seed : {1u, 2u}) {
    for (const GraphGenOptions& family : AllFamilies(seed)) {
      GeneratedGraph g = MakeGraph(family);
      AnalyticsResult engine = MustRun(program, g, 1);
      EXPECT_TRUE(engine.stats.converged);
      ExpectExactMatch(engine,
                       testing::ReferenceConnectedComponents(g.nodes, g.edges),
                       "cc seed " + std::to_string(seed));
    }
  }
}

TEST(AnalyticsDifferentialTest, SsspMatchesOracleExactly) {
  SsspProgram program(/*source=*/0);
  for (uint64_t seed : {1u, 2u}) {
    for (const GraphGenOptions& family : AllFamilies(seed)) {
      GeneratedGraph g = MakeGraph(family);
      AnalyticsResult engine = MustRun(program, g, 1);
      EXPECT_TRUE(engine.stats.converged);
      ExpectExactMatch(engine, testing::ReferenceSssp(g.nodes, g.edges, 0),
                       "sssp seed " + std::to_string(seed));
    }
  }
}

TEST(AnalyticsDifferentialTest, SsspUnitWeightsIsHopCount) {
  GraphGenOptions opt = ErdosRenyi(5);
  opt.unit_weights = true;
  GeneratedGraph g = MakeGraph(opt);
  SsspProgram program(0);
  AnalyticsResult engine = MustRun(program, g, 1);
  EXPECT_TRUE(engine.stats.converged);
  ExpectExactMatch(engine, testing::ReferenceSssp(g.nodes, g.edges, 0),
                   "sssp unit weights");
  // Unit weights: every finite distance is an integral hop count.
  for (const auto& [id, dist] : engine.values) {
    if (std::isinf(dist)) continue;
    EXPECT_EQ(dist, std::floor(dist)) << "vertex " << id;
  }
}

TEST(AnalyticsDifferentialTest, LabelPropagationMatchesOracleExactly) {
  LabelPropagationProgram program;
  for (uint64_t seed : {1u, 2u}) {
    for (const GraphGenOptions& family : AllFamilies(seed)) {
      GraphGenOptions opt = family;
      opt.unit_weights = true;
      GeneratedGraph g = MakeGraph(opt);
      AnalyticsResult engine = MustRun(program, g, 1);
      // LP may oscillate on symmetric motifs — converged is not asserted;
      // the oracle replays the exact same number of synchronous rounds.
      ExpectExactMatch(
          engine,
          testing::ReferenceLabelPropagation(g.nodes, g.edges,
                                             engine.stats.supersteps),
          "lp seed " + std::to_string(seed));
    }
  }
}

// The engine's superstep trajectory (not just the fixpoint) must equal
// synchronous Jacobi iteration: cap the supersteps and replay.
TEST(AnalyticsDifferentialTest, LabelPropagationTrajectoryIsSynchronous) {
  GraphGenOptions opt = PowerLaw(7);
  opt.unit_weights = true;
  GeneratedGraph g = MakeGraph(opt);
  LabelPropagationProgram program;
  for (int cap : {1, 2, 3}) {
    AnalyticsResult engine = MustRun(program, g, 1, cap);
    ASSERT_EQ(engine.stats.supersteps, cap);
    ExpectExactMatch(engine,
                     testing::ReferenceLabelPropagation(g.nodes, g.edges, cap),
                     "lp cap " + std::to_string(cap));
  }
}

// --- Engine semantics ----------------------------------------------------

TEST(AnalyticsEngineTest, ActiveSetDecaysAndStatsAreConsistent) {
  GeneratedGraph g = MakeGraph(PowerLaw(3));
  PageRankProgram program(0.85, 1e-10);
  AnalyticsResult result = MustRun(program, g, 1);
  ASSERT_TRUE(result.stats.converged);
  ASSERT_GT(result.stats.supersteps, 1);
  ASSERT_EQ(result.stats.active_per_round.size(),
            static_cast<std::size_t>(result.stats.supersteps));
  ASSERT_EQ(result.stats.messages_per_round.size(),
            static_cast<std::size_t>(result.stats.supersteps));
  // The DynPageRank idiom: converged vertices stop generating traffic, so
  // the tail of the run touches far fewer vertices than the head.
  EXPECT_LT(result.stats.active_per_round.back(),
            result.stats.active_per_round.front());
  EXPECT_EQ(result.stats.num_vertices,
            static_cast<int64_t>(g.nodes.size()));
  EXPECT_GT(result.stats.num_gather_edges, 0);
}

TEST(AnalyticsEngineTest, IsolatedVerticesGetTheirPostApplyValue) {
  GeneratedGraph g = MakeGraph(EmptyEdges(1));
  PageRankProgram program(0.85, 1e-10);
  AnalyticsResult result = MustRun(program, g, 1);
  EXPECT_TRUE(result.stats.converged);
  EXPECT_EQ(result.stats.supersteps, 0);
  // No in-edges anywhere: every vertex holds the teleport-only rank, not
  // its pre-Apply Init value 1/N.
  const double expected = 0.15 / static_cast<double>(g.nodes.size());
  for (const auto& [id, value] : result.values) {
    EXPECT_DOUBLE_EQ(value, expected) << "vertex " << id;
  }
}

TEST(AnalyticsEngineTest, InputValidation) {
  GeneratedGraph g = MakeGraph(PowerLaw(1));
  PageRankProgram program;
  AnalyticsConfig config = BaseConfig(1);

  auto empty = RunVertexProgram(config, program, {}, {});
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  std::vector<flat::NodeRecord> dup_nodes = g.nodes;
  dup_nodes.push_back(g.nodes.front());
  auto dup = RunVertexProgram(config, program, dup_nodes, g.edges);
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);

  std::vector<flat::EdgeRecord> dangling_edges = g.edges;
  flat::EdgeRecord bad;
  bad.src = g.nodes.front().id;
  bad.dst = 999999;
  dangling_edges.push_back(bad);
  auto dangling = RunVertexProgram(config, program, g.nodes, dangling_edges);
  EXPECT_EQ(dangling.status().code(), StatusCode::kInvalidArgument);
}

TEST(AnalyticsEngineTest, MakeProgramFactory) {
  ProgramOptions options;
  for (const char* name : {"pagerank", "cc", "sssp", "lp"}) {
    auto program = MakeProgram(name, options);
    ASSERT_TRUE(program.ok()) << name;
    EXPECT_EQ((*program)->Name(), name);
  }
  EXPECT_EQ(MakeProgram("bogus", options).status().code(),
            StatusCode::kInvalidArgument);
  options.damping = 1.5;
  EXPECT_EQ(MakeProgram("pagerank", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AnalyticsEngineTest, AugmentNodeTableAppendsOneColumn) {
  GeneratedGraph g = MakeGraph(PowerLaw(4));
  ConnectedComponentsProgram program;
  AnalyticsResult result = MustRun(program, g, 1);
  auto augmented = AugmentNodeTable(g.nodes, result);
  ASSERT_TRUE(augmented.ok());
  ASSERT_EQ(augmented->size(), g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    ASSERT_EQ((*augmented)[i].features.size(),
              g.nodes[i].features.size() + 1);
    EXPECT_EQ((*augmented)[i].features.back(),
              static_cast<float>(result.values[i].second));
  }
  // A result that lacks a node is rejected.
  AnalyticsResult truncated = result;
  truncated.values.pop_back();
  EXPECT_EQ(AugmentNodeTable(g.nodes, truncated).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Shard-count invariance ----------------------------------------------

std::vector<std::unique_ptr<VertexProgram>> AllPrograms() {
  std::vector<std::unique_ptr<VertexProgram>> programs;
  programs.push_back(std::make_unique<PageRankProgram>(0.85, 1e-10));
  programs.push_back(std::make_unique<ConnectedComponentsProgram>());
  programs.push_back(std::make_unique<SsspProgram>(0));
  programs.push_back(std::make_unique<LabelPropagationProgram>());
  return programs;
}

TEST(AnalyticsShardInvarianceTest, AllProgramsByteIdenticalAcrossShards) {
  for (const GraphGenOptions& family : {PowerLaw(3), Disconnected(3)}) {
    GeneratedGraph g = MakeGraph(family);
    for (const auto& program : AllPrograms()) {
      AnalyticsResult single = MustRun(*program, g, 1);
      const std::string expected = single.SerializeValues();
      for (int num_shards : {2, 4, 7}) {
        AnalyticsResult sharded = MustRun(*program, g, num_shards);
        EXPECT_TRUE(sharded.SerializeValues() == expected)
            << program->Name() << " diverges at " << num_shards << " shards";
        EXPECT_EQ(sharded.stats.supersteps, single.stats.supersteps)
            << program->Name();
      }
    }
  }
}

TEST(AnalyticsShardInvarianceTest, FaultInjectionPreservesEquivalence) {
  GeneratedGraph g = MakeGraph(PowerLaw(9));
  PageRankProgram program(0.85, 1e-10);
  AnalyticsResult clean = MustRun(program, g, 1);

  fail::ScopedFailpoint map_fault("mr.map", fail::ErrorConfig(0.25));
  fail::ScopedFailpoint reduce_fault("mr.reduce", fail::ErrorConfig(0.25));
  AnalyticsConfig faulty = BaseConfig(4);
  faulty.job.max_task_attempts = 20;
  auto sharded = RunVertexProgram(faulty, program, g.nodes, g.edges);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_GT(sharded->stats.job_stats.failed_attempts, 0);  // faults fired
  EXPECT_TRUE(sharded->SerializeValues() == clean.SerializeValues());
}

TEST(AnalyticsShardInvarianceTest, DfsDatasetBytesAreShardCountInvariant) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("agl_analytics_dfs_" + std::to_string(::getpid())))
          .string();
  auto dfs = mr::LocalDfs::Open(root);
  ASSERT_TRUE(dfs.ok());
  GeneratedGraph g = MakeGraph(PowerLaw(6));
  PageRankProgram program(0.85, 1e-10);

  AnalyticsConfig single = BaseConfig(1);
  auto single_result = RunVertexProgram(single, program, g.nodes, g.edges);
  ASSERT_TRUE(single_result.ok()) << single_result.status().ToString();
  ASSERT_TRUE(
      WriteValuesDataset(*single_result, single, &*dfs, "pr_single").ok());
  AnalyticsConfig sharded = BaseConfig(4);
  auto sharded_result = RunVertexProgram(sharded, program, g.nodes, g.edges);
  ASSERT_TRUE(sharded_result.ok()) << sharded_result.status().ToString();
  ASSERT_TRUE(
      WriteValuesDataset(*sharded_result, sharded, &*dfs, "pr_sharded").ok());

  auto single_bytes = dfs->ReadDataset("pr_single");
  auto sharded_bytes = dfs->ReadDataset("pr_sharded");
  ASSERT_TRUE(single_bytes.ok());
  ASSERT_TRUE(sharded_bytes.ok());
  EXPECT_TRUE(*single_bytes == *sharded_bytes);

  // The dataset is well-formed GraphFeatures: one single-node subgraph per
  // vertex carrying the value as its [1 x 1] feature block. ReadDataset
  // concatenates part files, so the id order comes back permuted —
  // compare as a sorted set.
  ASSERT_EQ(single_bytes->size(), g.nodes.size());
  std::vector<std::pair<flat::NodeId, double>> parsed;
  parsed.reserve(single_bytes->size());
  for (const std::string& bytes : *single_bytes) {
    auto gf = subgraph::GraphFeature::Parse(bytes);
    ASSERT_TRUE(gf.ok()) << gf.status().ToString();
    ASSERT_EQ(gf->node_features.rows(), 1);
    ASSERT_EQ(gf->node_features.cols(), 1);
    parsed.emplace_back(gf->target_id,
                        static_cast<double>(gf->node_features.at(0, 0)));
  }
  std::sort(parsed.begin(), parsed.end());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].first, single_result->values[i].first);
    EXPECT_EQ(parsed[i].second,
              static_cast<double>(
                  static_cast<float>(single_result->values[i].second)));
  }
  std::filesystem::remove_all(root);
}

// --- Heavy sweep (AGL_ANALYTICS_HEAVY=1, set by the analytics_sweep
// CTest entry; a direct run of the binary skips it) ------------------------

TEST(AnalyticsSweepTest, FullDifferentialAndInvarianceSweep) {
  if (std::getenv("AGL_ANALYTICS_HEAVY") == nullptr) {
    GTEST_SKIP() << "set AGL_ANALYTICS_HEAVY=1 (or run `ctest -L analytics`)";
  }
  for (uint64_t seed : {11u, 12u, 13u}) {
    for (const GraphGenOptions& family : AllFamilies(seed)) {
      GraphGenOptions lp_family = family;
      lp_family.unit_weights = true;
      GeneratedGraph g = MakeGraph(family);
      GeneratedGraph lp_g = MakeGraph(lp_family);
      for (const auto& program : AllPrograms()) {
        const bool is_lp = program->Name() == "lp";
        const GeneratedGraph& graph = is_lp ? lp_g : g;
        AnalyticsResult single = MustRun(*program, graph, 1);

        // Differential leg.
        if (program->Name() == "pagerank") {
          AnalyticsValues oracle = testing::ReferencePageRank(
              graph.nodes, graph.edges, 0.85, 1e-13, 20000);
          ASSERT_EQ(single.values.size(), oracle.size());
          for (std::size_t i = 0; i < oracle.size(); ++i) {
            EXPECT_NEAR(single.values[i].second, oracle[i].second, 1e-6);
          }
        } else if (program->Name() == "cc") {
          ExpectExactMatch(
              single,
              testing::ReferenceConnectedComponents(graph.nodes, graph.edges),
              "sweep cc");
        } else if (program->Name() == "sssp") {
          ExpectExactMatch(single,
                           testing::ReferenceSssp(graph.nodes, graph.edges, 0),
                           "sweep sssp");
        } else {
          ExpectExactMatch(single,
                           testing::ReferenceLabelPropagation(
                               graph.nodes, graph.edges,
                               single.stats.supersteps),
                           "sweep lp");
        }

        // Invariance leg.
        const std::string expected = single.SerializeValues();
        for (int num_shards : {2, 4, 7}) {
          AnalyticsResult sharded = MustRun(*program, graph, num_shards);
          EXPECT_TRUE(sharded.SerializeValues() == expected)
              << program->Name() << " seed " << seed << " shards "
              << num_shards;
        }
      }
    }
  }
}

}  // namespace
}  // namespace agl::analytics
