#include "agl/agl.h"

#include "nn/state_io.h"
#include "trainer/feature_source.h"

namespace agl {

agl::Result<flat::GraphFlatStats> Run(
    const flat::GraphFlatConfig& config,
    const std::vector<flat::NodeRecord>& node_table,
    const std::vector<flat::EdgeRecord>& edge_table, mr::LocalDfs* dfs,
    const std::string& dataset) {
  AGL_RETURN_IF_ERROR(config.Validate());
  return flat::RunGraphFlat(config, node_table, edge_table, dfs, dataset);
}

agl::Result<trainer::TrainReport> Run(
    const trainer::TrainerConfig& config,
    std::span<const subgraph::GraphFeature> train,
    std::span<const subgraph::GraphFeature> val) {
  AGL_RETURN_IF_ERROR(config.Validate());
  trainer::GraphTrainer t(config);
  return t.Train(train, val);
}

agl::Result<infer::InferResult> Run(
    const infer::InferConfig& config,
    const std::map<std::string, tensor::Tensor>& trained_state,
    const std::vector<flat::NodeRecord>& node_table,
    const std::vector<flat::EdgeRecord>& edge_table) {
  AGL_RETURN_IF_ERROR(config.Validate());
  if (config.batch_slices > 1 || config.cache_budget_bytes != 0) {
    return infer::RunGraphInferBatched(config, trained_state, node_table,
                                       edge_table);
  }
  return infer::RunGraphInfer(config, trained_state, node_table, edge_table);
}

agl::Result<infer::OriginalResult> Run(
    const infer::OriginalInferenceConfig& config,
    const std::map<std::string, tensor::Tensor>& trained_state,
    const std::vector<flat::NodeRecord>& node_table,
    const std::vector<flat::EdgeRecord>& edge_table) {
  AGL_RETURN_IF_ERROR(config.Validate());
  return infer::RunOriginalInference(config, trained_state, node_table,
                                     edge_table);
}

agl::Result<analytics::AnalyticsResult> Run(
    const analytics::AnalyticsConfig& config,
    const analytics::VertexProgram& program,
    const std::vector<analytics::NodeRecord>& node_table,
    const std::vector<analytics::EdgeRecord>& edge_table) {
  AGL_RETURN_IF_ERROR(config.Validate());
  return analytics::RunVertexProgram(config, program, node_table,
                                     edge_table);
}

agl::Result<std::unique_ptr<serve::InferenceService>> Run(
    const serve::ServeConfig& config,
    const std::map<std::string, tensor::Tensor>& trained_state,
    std::vector<flat::NodeRecord> node_table,
    std::vector<flat::EdgeRecord> edge_table, mr::LocalDfs* dfs) {
  // Start() validates (it also owns the store-open sequencing).
  return serve::InferenceService::Start(config, trained_state,
                                        std::move(node_table),
                                        std::move(edge_table), dfs);
}

agl::Result<std::vector<subgraph::GraphFeature>> LoadGraphFeatures(
    const mr::LocalDfs& dfs, const std::string& dataset) {
  // A sharded GraphFlat publishes one unified dataset, read like any
  // other; a dataset that was never published is kNotFound.
  AGL_ASSIGN_OR_RETURN(trainer::DfsFeatureSource source,
                       trainer::DfsFeatureSource::Open(dfs, dataset));
  return source.ReadAll();
}

std::string SerializeState(
    const std::map<std::string, tensor::Tensor>& state) {
  return nn::SerializeStateDict(state);
}

agl::Result<std::map<std::string, tensor::Tensor>> ParseState(
    const std::string& bytes) {
  return nn::ParseStateDict(bytes);
}

}  // namespace agl
