// AGL public facade — one entry point per stage of Figure 6:
//
//   GraphFlat    -n node_table -e edge_table -h hops -s sampling_strategy
//   GraphTrainer -m model_name -i input -t train_strategy -c dist_configs
//   GraphInfer   -m model -i input -c infer_configs
//
// Each stage is `agl::Run(<its config>, <its inputs>)`; developers only
// write the model (gnn::ModelConfig picks one of the built-in GCN /
// GraphSAGE / GAT implementations, or extend gnn::GnnModel). Running a
// stage's shards or workers as processes instead of threads is
// driver/driver.h, with the same configs and byte-identical outputs.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytics/vertex_program.h"
#include "common/status.h"
#include "flat/graphflat.h"
#include "infer/graphinfer.h"
#include "infer/original.h"
#include "mr/local_dfs.h"
#include "serve/inference_service.h"
#include "trainer/trainer.h"

namespace agl {

// ---------------------------------------------------------------------------
// The unified `Run` facade. Every pipeline stage is invoked the same way:
//
//   agl::Result<R> Run(const Config&, <stage inputs>...)
//
// where the overload is selected by the config type and `Config::Validate()`
// is always called up front — shape/range errors surface as
// kInvalidArgument before any work runs, for every entry point, uniformly.
// The agl_cli stage subcommands route through these (with --coord, through
// the driver:: twins of driver/driver.h).
// ---------------------------------------------------------------------------

/// GraphFlat: node/edge tables -> k-hop GraphFeatures on `dfs`/`dataset`.
agl::Result<flat::GraphFlatStats> Run(
    const flat::GraphFlatConfig& config,
    const std::vector<flat::NodeRecord>& node_table,
    const std::vector<flat::EdgeRecord>& edge_table, mr::LocalDfs* dfs,
    const std::string& dataset);

/// GraphTrainer over materialized GraphFeatures.
agl::Result<trainer::TrainReport> Run(
    const trainer::TrainerConfig& config,
    std::span<const subgraph::GraphFeature> train,
    std::span<const subgraph::GraphFeature> val);

/// GraphInfer. Routes to the batched driver (cross-slice embedding cache)
/// whenever `config.batch_slices` > 1 or the cache is enabled, and to the
/// single-pass pipeline otherwise — the two produce bit-identical scores,
/// so the routing is purely an execution-strategy choice.
agl::Result<infer::InferResult> Run(
    const infer::InferConfig& config,
    const std::map<std::string, tensor::Tensor>& trained_state,
    const std::vector<flat::NodeRecord>& node_table,
    const std::vector<flat::EdgeRecord>& edge_table);

/// The Table 5 "Original" baseline: GraphFlat + per-GraphFeature forwards.
agl::Result<infer::OriginalResult> Run(
    const infer::OriginalInferenceConfig& config,
    const std::map<std::string, tensor::Tensor>& trained_state,
    const std::vector<flat::NodeRecord>& node_table,
    const std::vector<flat::EdgeRecord>& edge_table);

/// Vertex-program analytics (PageRank/CC/SSSP/LP) on the sharded MR loop.
agl::Result<analytics::AnalyticsResult> Run(
    const analytics::AnalyticsConfig& config,
    const analytics::VertexProgram& program,
    const std::vector<analytics::NodeRecord>& node_table,
    const std::vector<analytics::EdgeRecord>& edge_table);

/// The always-on inference service: admission + coalescing over a
/// persistent cross-process embedding store (serve/inference_service.h).
agl::Result<std::unique_ptr<serve::InferenceService>> Run(
    const serve::ServeConfig& config,
    const std::map<std::string, tensor::Tensor>& trained_state,
    std::vector<flat::NodeRecord> node_table,
    std::vector<flat::EdgeRecord> edge_table, mr::LocalDfs* dfs);

/// Loads a GraphFeature dataset back from the DFS.
agl::Result<std::vector<subgraph::GraphFeature>> LoadGraphFeatures(
    const mr::LocalDfs& dfs, const std::string& dataset);

/// Serializes a trained state dict for storage on the DFS.
std::string SerializeState(const std::map<std::string, tensor::Tensor>& state);
agl::Result<std::map<std::string, tensor::Tensor>> ParseState(
    const std::string& bytes);

}  // namespace agl
