// Tests for model segmentation and GraphInfer. The central equivalence:
// sliced MapReduce inference must reproduce the whole-graph forward pass
// (FullGraphScores) for every model type, and must agree with the Original
// per-GraphFeature baseline on predictions while doing strictly fewer
// embedding evaluations.

#include <gtest/gtest.h>

#include <cmath>

#include "common/failpoint.h"
#include "baseline/full_graph.h"
#include "data/dataset.h"
#include "infer/graphinfer.h"
#include "infer/original.h"
#include "infer/segmentation.h"

namespace agl::infer {
namespace {

data::Dataset SmallUug(int nodes = 80) {
  data::UugLikeOptions opts;
  opts.num_nodes = nodes;
  opts.feature_dim = 6;
  opts.attach_edges = 3;
  opts.train_size = nodes / 2;
  opts.val_size = nodes / 8;
  opts.test_size = nodes / 8;
  return data::MakeUugLike(opts);
}

gnn::ModelConfig SmallModel(gnn::ModelType type, int layers,
                            int64_t in_dim) {
  gnn::ModelConfig config;
  config.type = type;
  config.num_layers = layers;
  config.in_dim = in_dim;
  config.hidden_dim = 5;
  config.out_dim = 2;
  config.seed = 17;
  return config;
}

TEST(SegmentationTest, SplitsByLayer) {
  gnn::GnnModel model(SmallModel(gnn::ModelType::kGat, 3, 6));
  auto slices = SegmentModel(model.StateDict(), model.config());
  ASSERT_TRUE(slices.ok());
  ASSERT_EQ(slices->size(), 4u);  // 3 layers + prediction slice
  for (int k = 0; k < 3; ++k) {
    EXPECT_FALSE((*slices)[k].params.empty());
    EXPECT_EQ((*slices)[k].layer, k);
  }
  EXPECT_TRUE((*slices)[3].params.empty());  // identity prediction head
}

TEST(SegmentationTest, SliceParamsCoverWholeModel) {
  gnn::GnnModel model(SmallModel(gnn::ModelType::kGraphSage, 2, 6));
  auto slices = SegmentModel(model.StateDict(), model.config());
  ASSERT_TRUE(slices.ok());
  std::size_t total = 0;
  for (const auto& s : *slices) total += s.params.size();
  EXPECT_EQ(total, model.StateDict().size());
}

TEST(SegmentationTest, RejectsUnknownKeys) {
  const gnn::ModelConfig config = SmallModel(gnn::ModelType::kGcn, 2, 6);
  auto state = gnn::GnnModel(config).StateDict();
  state.emplace("not_a_layer.weight", tensor::Tensor(1, 1));
  EXPECT_EQ(SegmentModel(state, config).status().code(),
            StatusCode::kInvalidArgument);
}

// A state dict is accepted only as exactly the parameter set of
// GnnModel(config): depth, model type, heads and every shape must match.
TEST(SegmentationTest, RejectsStateOfAnotherModel) {
  const gnn::ModelConfig gcn2 = SmallModel(gnn::ModelType::kGcn, 2, 6);
  const auto state = gnn::GnnModel(gcn2).StateDict();
  gnn::ModelConfig deeper = gcn2;
  deeper.num_layers = 3;
  gnn::ModelConfig shallower = gcn2;
  shallower.num_layers = 1;
  gnn::ModelConfig gat = gcn2;
  gat.type = gnn::ModelType::kGat;
  gnn::ModelConfig wider = gcn2;
  wider.in_dim = 7;
  gnn::ModelConfig bigger_hidden = gcn2;
  bigger_hidden.hidden_dim = 6;
  for (const gnn::ModelConfig& config :
       {deeper, shallower, gat, wider, bigger_hidden}) {
    EXPECT_EQ(SegmentModel(state, config).status().code(),
              StatusCode::kInvalidArgument)
        << gnn::ModelTypeName(config.type) << " " << config.num_layers;
  }
  gnn::ModelConfig two_heads = SmallModel(gnn::ModelType::kGat, 2, 6);
  two_heads.gat_heads = 2;
  gnn::ModelConfig one_head = two_heads;
  one_head.gat_heads = 1;
  EXPECT_EQ(SegmentModel(gnn::GnnModel(two_heads).StateDict(), one_head)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

class InferEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<gnn::ModelType, int>> {};

TEST_P(InferEquivalenceTest, MatchesFullGraphForward) {
  const auto [type, layers] = GetParam();
  data::Dataset ds = SmallUug();
  gnn::ModelConfig mconfig = SmallModel(type, layers, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  // Ground truth: whole-graph forward (softmax scores per node).
  auto truth = baseline::FullGraphScores(mconfig, state, ds);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  InferConfig iconfig;
  iconfig.model = mconfig;
  iconfig.job.num_reduce_tasks = 5;
  auto result = RunGraphInfer(iconfig, state, ds.nodes, ds.edges);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->scores.size(), ds.nodes.size());

  for (std::size_t i = 0; i < result->scores.size(); ++i) {
    const auto& [id, scores] = result->scores[i];
    // ds.nodes are ordered by id == row index in `truth`.
    ASSERT_EQ(id, ds.nodes[i].id);
    ASSERT_EQ(scores.size(), 2u);
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(scores[c], truth->at(static_cast<int64_t>(i), c), 2e-3f)
          << "node " << id << " class " << c << " ("
          << gnn::ModelTypeName(type) << ", " << layers << " layers)";
    }
  }
  // Exactly one embedding evaluation per node per layer.
  EXPECT_EQ(result->costs.embedding_evaluations,
            static_cast<int64_t>(ds.nodes.size()) * layers);
}

INSTANTIATE_TEST_SUITE_P(
    Models, InferEquivalenceTest,
    ::testing::Combine(::testing::Values(gnn::ModelType::kGcn,
                                         gnn::ModelType::kGraphSage,
                                         gnn::ModelType::kGat),
                       ::testing::Values(1, 2)));

TEST(GraphInferTest, ShardedInferenceIsBitExact) {
  // num_shards partitions the rounds the same way sharded GraphFlat does;
  // with the engine's canonical value ordering the float accumulation
  // order is fixed, so scores must be bit-exact across shard counts.
  data::Dataset ds = SmallUug(70);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGcn, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  InferConfig iconfig;
  iconfig.model = mconfig;
  iconfig.job.num_reduce_tasks = 5;
  auto single = RunGraphInfer(iconfig, state, ds.nodes, ds.edges);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  for (int num_shards : {2, 4, 7}) {
    iconfig.num_shards = num_shards;
    auto sharded = RunGraphInfer(iconfig, state, ds.nodes, ds.edges);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ(sharded->scores.size(), single->scores.size());
    for (std::size_t i = 0; i < sharded->scores.size(); ++i) {
      EXPECT_EQ(sharded->scores[i].first, single->scores[i].first);
      EXPECT_EQ(sharded->scores[i].second, single->scores[i].second)
          << "node " << single->scores[i].first << " with " << num_shards
          << " shards";
    }
    EXPECT_EQ(sharded->costs.embedding_evaluations,
              single->costs.embedding_evaluations);
  }
}

TEST(OriginalInferenceTest, AgreesWithGraphInferOnPredictions) {
  data::Dataset ds = SmallUug(60);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  InferConfig iconfig;
  iconfig.model = mconfig;
  auto sliced = RunGraphInfer(iconfig, state, ds.nodes, ds.edges);
  ASSERT_TRUE(sliced.ok());

  OriginalInferenceConfig oconfig;
  oconfig.model = mconfig;
  auto original = RunOriginalInference(oconfig, state, ds.nodes, ds.edges);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  ASSERT_EQ(sliced->scores.size(), original->scores.size());
  for (std::size_t i = 0; i < sliced->scores.size(); ++i) {
    EXPECT_EQ(sliced->scores[i].first, original->scores[i].first);
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(sliced->scores[i].second[c],
                  original->scores[i].second[c], 2e-3f)
          << "node " << sliced->scores[i].first;
    }
  }
}

TEST(OriginalInferenceTest, RepeatsEmbeddingWork) {
  // The whole point of GraphInfer: the Original baseline evaluates far more
  // embeddings because overlapping neighborhoods recompute shared nodes.
  data::Dataset ds = SmallUug(60);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGcn, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  InferConfig iconfig;
  iconfig.model = mconfig;
  auto sliced = RunGraphInfer(iconfig, state, ds.nodes, ds.edges);
  ASSERT_TRUE(sliced.ok());

  OriginalInferenceConfig oconfig;
  oconfig.model = mconfig;
  // Small batches: neighborhoods overlap across batches and the Original
  // module recomputes the shared nodes (within a batch the merge dedupes).
  oconfig.batch_size = 4;
  auto original = RunOriginalInference(oconfig, state, ds.nodes, ds.edges);
  ASSERT_TRUE(original.ok());

  EXPECT_GT(original->costs.embedding_evaluations,
            2 * sliced->costs.embedding_evaluations);
}

TEST(GraphInferTest, SurvivesInjectedFaults) {
  data::Dataset ds = SmallUug(40);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGcn, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  InferConfig clean_config;
  clean_config.model = mconfig;
  auto clean = RunGraphInfer(clean_config, state, ds.nodes, ds.edges);
  ASSERT_TRUE(clean.ok());

  InferConfig faulty_config = clean_config;
  fail::ScopedFailpoint map_fault("mr.map", fail::ErrorConfig(0.3));
  fail::ScopedFailpoint reduce_fault("mr.reduce", fail::ErrorConfig(0.3));
  faulty_config.job.max_task_attempts = 15;
  auto faulty = RunGraphInfer(faulty_config, state, ds.nodes, ds.edges);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  ASSERT_EQ(clean->scores.size(), faulty->scores.size());
  for (std::size_t i = 0; i < clean->scores.size(); ++i) {
    EXPECT_EQ(clean->scores[i].first, faulty->scores[i].first);
    for (std::size_t c = 0; c < clean->scores[i].second.size(); ++c) {
      EXPECT_NEAR(clean->scores[i].second[c], faulty->scores[i].second[c],
                  1e-6f);
    }
  }
}

TEST(GraphInferTest, TargetSubsetMatchesFullRun) {
  // §3.4: pruned inference over part of the graph. For models whose
  // normalization depends only on in-edges (SAGE row-norm, GAT attention),
  // the K-hop neighborhood is information-complete, so subset scores must
  // equal the full run's scores for those targets.
  data::Dataset ds = SmallUug(70);
  for (gnn::ModelType type : {gnn::ModelType::kGraphSage,
                              gnn::ModelType::kGat}) {
    gnn::ModelConfig mconfig = SmallModel(type, 2, ds.feature_dim);
    gnn::GnnModel model(mconfig);
    const auto state = model.StateDict();

    InferConfig full_config;
    full_config.model = mconfig;
    auto full = RunGraphInfer(full_config, state, ds.nodes, ds.edges);
    ASSERT_TRUE(full.ok());

    InferConfig subset_config = full_config;
    subset_config.target_ids = {ds.nodes[3].id, ds.nodes[17].id,
                                ds.nodes[42].id};
    auto subset = RunGraphInfer(subset_config, state, ds.nodes, ds.edges);
    ASSERT_TRUE(subset.ok()) << subset.status().ToString();
    ASSERT_EQ(subset->scores.size(), 3u);

    std::unordered_map<uint64_t, const std::vector<float>*> full_of;
    for (const auto& [id, s] : full->scores) full_of[id] = &s;
    for (const auto& [id, s] : subset->scores) {
      ASSERT_TRUE(full_of.count(id) > 0);
      for (std::size_t c = 0; c < s.size(); ++c) {
        EXPECT_NEAR(s[c], (*full_of[id])[c], 1e-5f)
            << gnn::ModelTypeName(type) << " node " << id;
      }
    }
    // Pruning must reduce the work: fewer embedding evaluations than the
    // full graph run.
    EXPECT_LT(subset->costs.embedding_evaluations,
              full->costs.embedding_evaluations);
  }
}

TEST(GraphInferTest, TargetSubsetSingleNodeNoEdges) {
  data::Dataset ds = SmallUug(30);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 1, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  InferConfig config;
  config.model = mconfig;
  config.target_ids = {ds.nodes[0].id};
  auto result =
      RunGraphInfer(config, model.StateDict(), ds.nodes, ds.edges);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->scores.size(), 1u);
  EXPECT_EQ(result->scores[0].first, ds.nodes[0].id);
}

// A wrong artifact or node table is a clean kInvalidArgument from both
// drivers, never a crash inside a round.
TEST(GraphInferTest, RejectsMismatchedModelOrNodeTable) {
  data::Dataset ds = SmallUug(30);
  const gnn::ModelConfig trained =
      SmallModel(gnn::ModelType::kGcn, 2, ds.feature_dim);
  const auto state = gnn::GnnModel(trained).StateDict();
  InferConfig deeper;
  deeper.model = trained;
  deeper.model.num_layers = 3;
  InferConfig gat;
  gat.model = trained;
  gat.model.type = gnn::ModelType::kGat;
  for (const InferConfig& config : {deeper, gat}) {
    EXPECT_EQ(RunGraphInfer(config, state, ds.nodes, ds.edges).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(RunGraphInferBatched(config, state, ds.nodes, ds.edges)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }

  InferConfig ok;
  ok.model = trained;
  std::vector<flat::NodeRecord> ragged = ds.nodes;
  ragged[ragged.size() / 2].features.pop_back();
  auto single = RunGraphInfer(ok, state, ragged, ds.edges);
  EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(single.status().message().find(
                "node " + std::to_string(ragged[ragged.size() / 2].id)),
            std::string::npos)
      << single.status().ToString();
  EXPECT_EQ(RunGraphInferBatched(ok, state, ragged, ds.edges).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphInferTest, EmptyNodesRejected) {
  InferConfig config;
  config.model = SmallModel(gnn::ModelType::kGcn, 1, 4);
  gnn::GnnModel model(config.model);
  auto result = RunGraphInfer(config, model.StateDict(), {}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace agl::infer
