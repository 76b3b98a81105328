// End-to-end integration: the full AGL pipeline of Figure 6 — GraphFlat on
// raw tables -> DFS -> GraphTrainer on the PS -> model state -> GraphInfer
// over the whole graph — plus the baseline cross-checks.

#include <gtest/gtest.h>

#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include "agl/agl.h"
#include "baseline/full_graph.h"
#include "data/dataset.h"
#include "nn/metrics.h"

namespace agl {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("agl_e2e_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string root_;
};

TEST_F(PipelineTest, FlatTrainInferEndToEnd) {
  // 1. Data: a small UUG-like social graph.
  data::UugLikeOptions dopts;
  dopts.num_nodes = 250;
  dopts.feature_dim = 8;
  dopts.attach_edges = 3;
  dopts.train_size = 120;
  dopts.val_size = 40;
  dopts.test_size = 60;
  data::Dataset ds = data::MakeUugLike(dopts);

  // 2. GraphFlat: k-hop neighborhoods onto the DFS.
  auto dfs = mr::LocalDfs::Open(root_);
  ASSERT_TRUE(dfs.ok());
  flat::GraphFlatConfig fconfig;
  fconfig.hops = 2;
  fconfig.sampler = {sampling::Strategy::kUniform, 10};
  auto fstats = agl::Run(fconfig, ds.nodes, ds.edges, &*dfs, "features");
  ASSERT_TRUE(fstats.ok()) << fstats.status().ToString();
  EXPECT_EQ(fstats->num_features, ds.num_nodes());  // all labeled

  // 3. Load back and split.
  auto features = LoadGraphFeatures(*dfs, "features");
  ASSERT_TRUE(features.ok());
  auto splits = data::SplitFeatures(std::move(features).value(), ds);
  ASSERT_EQ(splits.train.size(), 120u);

  // 4. GraphTrainer with 2 workers on the parameter server.
  trainer::TrainerConfig tconfig;
  tconfig.model.type = gnn::ModelType::kGcn;
  tconfig.model.num_layers = 2;
  tconfig.model.in_dim = ds.feature_dim;
  tconfig.model.hidden_dim = 8;
  tconfig.model.out_dim = 2;
  tconfig.task = trainer::TaskKind::kBinaryAuc;
  tconfig.num_workers = 2;
  tconfig.epochs = 5;
  tconfig.batch_size = 16;
  tconfig.adam.lr = 0.02f;
  auto report = agl::Run(tconfig, splits.train, splits.val);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->best_val_metric, 0.6);

  // 5. Model state round-trips through serialization (DFS storage).
  const std::string state_bytes = SerializeState(report->final_state);
  auto state = ParseState(state_bytes);
  ASSERT_TRUE(state.ok());

  // 6. GraphInfer over the whole graph.
  infer::InferConfig iconfig;
  iconfig.model = tconfig.model;
  auto inference = agl::Run(iconfig, *state, ds.nodes, ds.edges);
  ASSERT_TRUE(inference.ok()) << inference.status().ToString();
  ASSERT_EQ(inference->scores.size(), ds.nodes.size());

  // 7. The inferred scores reproduce the trainer's test metric: AUC over
  // the test ids must also beat chance.
  std::unordered_map<uint64_t, int> label_of;
  for (const auto& n : ds.nodes) label_of[n.id] = static_cast<int>(n.label);
  std::vector<float> scores;
  std::vector<int> labels;
  std::unordered_set<uint64_t> test_ids(ds.test_ids.begin(),
                                        ds.test_ids.end());
  for (const auto& [id, score] : inference->scores) {
    if (test_ids.count(id) == 0) continue;
    scores.push_back(score[1]);
    labels.push_back(label_of[id]);
  }
  ASSERT_EQ(scores.size(), ds.test_ids.size());
  EXPECT_GT(nn::Auc(scores, labels), 0.6);
}

TEST_F(PipelineTest, AglMatchesFullGraphBaselineEffectiveness) {
  // Table 3 property: the AGL-trained model reaches the same metric level
  // as the in-memory full-graph engine on the same data.
  data::CoraLikeOptions copts;
  copts.num_nodes = 300;
  copts.feature_dim = 48;
  copts.num_classes = 4;
  copts.train_per_class = 20;
  copts.val_size = 60;
  copts.test_size = 60;
  data::Dataset ds = data::MakeCoraLike(copts);

  gnn::ModelConfig model;
  model.type = gnn::ModelType::kGcn;
  model.num_layers = 2;
  model.in_dim = ds.feature_dim;
  model.hidden_dim = 16;
  model.out_dim = 4;

  // Baseline: full-graph engine.
  baseline::FullGraphConfig bconfig;
  bconfig.model = model;
  bconfig.task = trainer::TaskKind::kSingleLabel;
  bconfig.epochs = 60;
  bconfig.adam.lr = 0.02f;
  auto bl = baseline::TrainFullGraph(bconfig, ds);
  ASSERT_TRUE(bl.ok()) << bl.status().ToString();

  // AGL: GraphFlat + subgraph trainer.
  flat::GraphFlatConfig fconfig;
  fconfig.hops = 2;
  auto features =
      flat::RunGraphFlatInMemory(fconfig, ds.nodes, ds.edges);
  ASSERT_TRUE(features.ok());
  auto splits = data::SplitFeatures(std::move(features).value(), ds);
  trainer::TrainerConfig tconfig;
  tconfig.model = model;
  tconfig.task = trainer::TaskKind::kSingleLabel;
  tconfig.epochs = 12;
  tconfig.batch_size = 20;
  tconfig.adam.lr = 0.02f;
  auto agl_report = agl::Run(tconfig, splits.train, splits.val);
  ASSERT_TRUE(agl_report.ok());

  // Both beat chance clearly and land within a band of each other.
  EXPECT_GT(bl->val_metric, 0.5);
  EXPECT_GT(agl_report->best_val_metric, 0.5);
  EXPECT_NEAR(agl_report->best_val_metric, bl->val_metric, 0.2);
}

}  // namespace
}  // namespace agl
