// Quickstart: the smallest complete AGL pipeline, mirroring Figure 6.
//
//   1. GraphFlat    — flatten a toy social graph into 2-hop GraphFeatures
//   2. GraphTrainer — train a GCN on the parameter server
//   3. GraphInfer   — sliced MapReduce inference over the whole graph
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "agl/agl.h"
#include "data/dataset.h"

int main() {
  using namespace agl;

  // --- A small synthetic social graph (two communities, binary labels).
  data::UugLikeOptions dopts;
  dopts.num_nodes = 400;
  dopts.feature_dim = 16;
  dopts.train_size = 200;
  dopts.val_size = 60;
  dopts.test_size = 100;
  data::Dataset ds = data::MakeUugLike(dopts);
  std::printf("graph: %lld nodes, %lld edges, %lld features/node\n",
              static_cast<long long>(ds.num_nodes()),
              static_cast<long long>(ds.num_edges()),
              static_cast<long long>(ds.feature_dim));

  // --- Stage 1: GraphFlat -n node_table -e edge_table -h 2 -s uniform
  auto dfs = mr::LocalDfs::Open("/tmp/agl_quickstart_dfs");
  if (!dfs.ok()) {
    std::fprintf(stderr, "DFS: %s\n", dfs.status().ToString().c_str());
    return 1;
  }
  flat::GraphFlatConfig fconfig;
  fconfig.hops = 2;
  fconfig.sampler = {sampling::Strategy::kUniform, 15};
  auto fstats = Run(fconfig, ds.nodes, ds.edges, &*dfs, "features");
  if (!fstats.ok()) {
    std::fprintf(stderr, "GraphFlat: %s\n",
                 fstats.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "GraphFlat: %lld GraphFeatures (avg %.1f nodes, %.1f edges each) in "
      "%.2fs\n",
      static_cast<long long>(fstats->num_features),
      static_cast<double>(fstats->total_nodes) / fstats->num_features,
      static_cast<double>(fstats->total_edges) / fstats->num_features,
      fstats->elapsed_seconds);

  // --- Stage 2: GraphTrainer -m gcn -i features -c {workers:4}
  auto features = LoadGraphFeatures(*dfs, "features");
  if (!features.ok()) return 1;
  auto splits = data::SplitFeatures(std::move(features).value(), ds);

  trainer::TrainerConfig tconfig;
  tconfig.model.type = gnn::ModelType::kGcn;
  tconfig.model.num_layers = 2;
  tconfig.model.in_dim = ds.feature_dim;
  tconfig.model.hidden_dim = 16;
  tconfig.model.out_dim = 2;
  tconfig.task = trainer::TaskKind::kBinaryAuc;
  tconfig.num_workers = 4;
  tconfig.epochs = 6;
  tconfig.batch_size = 32;
  tconfig.adam.lr = 0.01f;
  auto report = Run(tconfig, splits.train, splits.val);
  if (!report.ok()) {
    std::fprintf(stderr, "GraphTrainer: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  for (const auto& e : report->epochs) {
    std::printf("  epoch %d  loss %.4f  val AUC %.4f  (%.2fs)\n", e.epoch,
                e.mean_train_loss, e.val_metric, e.seconds);
  }

  // --- Stage 3: GraphInfer -m model -i graph
  infer::InferConfig iconfig;
  iconfig.model = tconfig.model;
  auto inference = Run(iconfig, report->final_state, ds.nodes, ds.edges);
  if (!inference.ok()) {
    std::fprintf(stderr, "GraphInfer: %s\n",
                 inference.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "GraphInfer: scored %zu nodes in %.2fs (%lld embedding evaluations)\n",
      inference->scores.size(), inference->costs.time_seconds,
      static_cast<long long>(inference->costs.embedding_evaluations));
  std::printf("first scores: ");
  for (std::size_t i = 0; i < 3 && i < inference->scores.size(); ++i) {
    std::printf("node %llu -> P(class1)=%.3f  ",
                static_cast<unsigned long long>(inference->scores[i].first),
                inference->scores[i].second[1]);
  }
  std::printf("\n");
  return 0;
}
