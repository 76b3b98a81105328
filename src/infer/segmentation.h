// Hierarchical model segmentation (§3.4, step 1): a trained K-layer GNN is
// split into K + 1 slices — one per layer plus the final prediction model.
// Each GraphInfer Reduce round loads exactly one slice and applies it to a
// node given its current embedding and its in-edge neighbors' embeddings.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "gnn/model.h"
#include "tensor/tensor.h"

namespace agl::infer {

/// One model slice: the parameters of a single layer (or of the prediction
/// head for the K+1-th slice).
struct ModelSlice {
  int layer = 0;  // 0..K-1 for GNN layers; K for the prediction slice
  std::map<std::string, tensor::Tensor> params;
};

/// Splits a trained state dict into K layer slices plus one (empty)
/// prediction slice. kInvalidArgument unless `state` is exactly the
/// parameter set of gnn::GnnModel(config): every parameter present with
/// the shape `config` implies, and no other key — so a wrong artifact, a
/// wrong model type or wrong dimensions fail here, not inside a round.
agl::Result<std::vector<ModelSlice>> SegmentModel(
    const std::map<std::string, tensor::Tensor>& state,
    const gnn::ModelConfig& config);

/// In-edge neighbor of a node during one inference round.
struct NeighborEmbedding {
  uint64_t id = 0;
  /// Weight from the (pre-normalized) adjacency; ignored by GAT slices.
  float weight = 1.f;
  std::vector<float> embedding;
};

/// Applies slice `k` of the model to one destination node, reproducing the
/// corresponding GnnModel::ForwardLayer output row exactly (including the
/// inter-layer activation). `self` is the node's own h^(k); `neighbors`
/// must carry the same (normalized) weights the training-time adjacency
/// had, including the self-loop entry where the model type adds one.
agl::Result<std::vector<float>> ApplySlice(
    const gnn::ModelConfig& config, const ModelSlice& slice,
    const std::vector<float>& self,
    const std::vector<NeighborEmbedding>& neighbors);

/// Applies the prediction slice: maps the final embedding to the output
/// scores (identity head followed by softmax for classification tasks).
std::vector<float> ApplyPredictionSlice(const gnn::ModelConfig& config,
                                        const std::vector<float>& embedding);

}  // namespace agl::infer
