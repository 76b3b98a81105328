#include "infer/segmentation.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/logging.h"

namespace agl::infer {
namespace {

/// Strict layer index of a "layer<k>.<...>" state-dict key, or -1 when the
/// key does not match the convention exactly (e.g. "layer1x.w" is malformed,
/// not layer 1).
int ParseLayerIndex(const std::string& key) {
  if (key.rfind("layer", 0) != 0) return -1;
  const std::size_t dot = key.find('.');
  if (dot == std::string::npos || dot <= 5) return -1;
  int layer = -1;
  const char* begin = key.data() + 5;
  const char* end = key.data() + dot;
  const auto [ptr, ec] = std::from_chars(begin, end, layer);
  if (ec != std::errc() || ptr != end || layer < 0) return -1;
  return layer;
}

/// y += x @ W (x is [1 x in], W is [in x out], y is [1 x out]).
void AddVecMat(const std::vector<float>& x, const tensor::Tensor& w,
               float scale, std::vector<float>* y) {
  AGL_CHECK_EQ(static_cast<int64_t>(x.size()), w.rows());
  AGL_CHECK_EQ(static_cast<int64_t>(y->size()), w.cols());
  for (int64_t i = 0; i < w.rows(); ++i) {
    const float xv = x[i] * scale;
    if (xv == 0.f) continue;
    const float* wrow = w.row(i);
    for (int64_t j = 0; j < w.cols(); ++j) (*y)[j] += xv * wrow[j];
  }
}

float Dot(const std::vector<float>& x, const tensor::Tensor& col) {
  AGL_CHECK_EQ(static_cast<int64_t>(x.size()), col.rows());
  float s = 0.f;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * col.at(i, 0);
  return s;
}

const tensor::Tensor& Param(const ModelSlice& slice, const std::string& key) {
  auto it = slice.params.find(key);
  AGL_CHECK(it != slice.params.end())
      << "slice " << slice.layer << " missing parameter " << key;
  return it->second;
}

void Relu(std::vector<float>* v) {
  for (float& x : *v) x = std::max(0.f, x);
}

void EluInPlace(std::vector<float>* v) {
  for (float& x : *v) x = x > 0.f ? x : std::exp(x) - 1.f;
}

}  // namespace

agl::Result<std::vector<ModelSlice>> SegmentModel(
    const std::map<std::string, tensor::Tensor>& state,
    const gnn::ModelConfig& config) {
  if (config.num_layers < 1 || config.in_dim <= 0 || config.hidden_dim <= 0 ||
      config.out_dim <= 0) {
    return agl::Status::InvalidArgument(
        "SegmentModel: model layers and dimensions must be positive");
  }
  gnn::GnnModel model(config);
  const std::string fit = std::string("model state does not fit a ") +
                          gnn::ModelTypeName(config.type) + " with " +
                          std::to_string(config.num_layers) +
                          " layers and in_dim " +
                          std::to_string(config.in_dim) + ": ";
  if (agl::Status s = model.LoadStateDict(state); !s.ok()) {
    return agl::Status::InvalidArgument(fit + s.message());
  }
  std::unordered_set<std::string> expected;
  for (const nn::NamedParameter& p : model.Parameters()) {
    expected.insert(p.name);
  }
  std::vector<ModelSlice> slices(config.num_layers + 1);
  for (int k = 0; k <= config.num_layers; ++k) slices[k].layer = k;
  for (const auto& [key, value] : state) {
    const int layer = ParseLayerIndex(key);
    if (expected.count(key) == 0 || layer < 0) {
      return agl::Status::InvalidArgument(fit + "unexpected parameter " +
                                          key);
    }
    slices[layer].params.emplace(key.substr(key.find('.') + 1), value);
  }
  // slices[num_layers] (the prediction slice) stays empty: the models end
  // in an identity head; kept so the pipeline shape matches the paper.
  return slices;
}

agl::Result<std::vector<float>> ApplySlice(
    const gnn::ModelConfig& config, const ModelSlice& slice,
    const std::vector<float>& self,
    const std::vector<NeighborEmbedding>& neighbors) {
  const bool last = slice.layer == config.num_layers - 1;
  std::vector<float> out;

  switch (config.type) {
    case gnn::ModelType::kGcn: {
      // out = sum_j w_j (h_j W + b); the normalized adjacency row includes
      // the self loop, so `self` participates through `neighbors`.
      const tensor::Tensor& w = Param(slice, "linear.weight");
      const tensor::Tensor& b = Param(slice, "linear.bias");
      out.assign(w.cols(), 0.f);
      float weight_sum = 0.f;
      for (const NeighborEmbedding& nb : neighbors) {
        AddVecMat(nb.embedding, w, nb.weight, &out);
        weight_sum += nb.weight;
      }
      for (int64_t j = 0; j < b.cols(); ++j) {
        out[j] += weight_sum * b.at(0, j);
      }
      if (!last) Relu(&out);
      return out;
    }
    case gnn::ModelType::kGraphSage: {
      const tensor::Tensor& ws = Param(slice, "self.weight");
      const tensor::Tensor& bs = Param(slice, "self.bias");
      const tensor::Tensor& wn = Param(slice, "neigh.weight");
      // Aggregate neighbors first (row-normalized mean weights), then
      // transform: (sum_j w_j h_j) Wn + (h_self Ws + bs).
      std::vector<float> agg(ws.rows(), 0.f);
      for (const NeighborEmbedding& nb : neighbors) {
        AGL_CHECK_EQ(nb.embedding.size(), agg.size());
        for (std::size_t i = 0; i < agg.size(); ++i) {
          agg[i] += nb.weight * nb.embedding[i];
        }
      }
      out.assign(ws.cols(), 0.f);
      AddVecMat(self, ws, 1.f, &out);
      for (int64_t j = 0; j < bs.cols(); ++j) out[j] += bs.at(0, j);
      AddVecMat(agg, wn, 1.f, &out);
      if (!last) Relu(&out);
      return out;
    }
    case gnn::ModelType::kGat: {
      const tensor::Tensor& bias = Param(slice, "bias");
      const int heads = config.gat_heads;
      const bool concat = !last;
      std::vector<float> combined;
      for (int hd = 0; hd < heads; ++hd) {
        const std::string s = std::to_string(hd);
        const tensor::Tensor& w = Param(slice, "weight_" + s);
        const tensor::Tensor& al = Param(slice, "attn_l_" + s);
        const tensor::Tensor& ar = Param(slice, "attn_r_" + s);
        // Transform every neighbor (the self-loop entry covers `self`).
        std::vector<std::vector<float>> wh(neighbors.size());
        std::vector<float> scores(neighbors.size());
        std::vector<float> wh_self(w.cols(), 0.f);
        AddVecMat(self, w, 1.f, &wh_self);
        const float al_self = Dot(wh_self, al);
        float mx = -std::numeric_limits<float>::infinity();
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          wh[i].assign(w.cols(), 0.f);
          AddVecMat(neighbors[i].embedding, w, 1.f, &wh[i]);
          const float z = al_self + Dot(wh[i], ar);
          scores[i] = z > 0.f ? z : 0.2f * z;
          mx = std::max(mx, scores[i]);
        }
        std::vector<float> head(w.cols(), 0.f);
        if (!neighbors.empty()) {
          float denom = 0.f;
          for (float& sc : scores) {
            sc = std::exp(sc - mx);
            denom += sc;
          }
          for (std::size_t i = 0; i < neighbors.size(); ++i) {
            const float a = scores[i] / denom;
            for (int64_t j = 0; j < w.cols(); ++j) head[j] += a * wh[i][j];
          }
        }
        if (concat) {
          combined.insert(combined.end(), head.begin(), head.end());
        } else if (combined.empty()) {
          combined = head;
        } else {
          for (std::size_t j = 0; j < head.size(); ++j) {
            combined[j] += head[j];
          }
        }
      }
      if (!concat && heads > 1) {
        for (float& x : combined) x /= static_cast<float>(heads);
      }
      AGL_CHECK_EQ(static_cast<int64_t>(combined.size()), bias.cols());
      for (int64_t j = 0; j < bias.cols(); ++j) combined[j] += bias.at(0, j);
      if (!last) EluInPlace(&combined);
      return combined;
    }
  }
  return agl::Status::Internal("unknown model type");
}

std::vector<float> ApplyPredictionSlice(const gnn::ModelConfig& config,
                                        const std::vector<float>& embedding) {
  (void)config;
  // Identity head + softmax: the predicted class distribution.
  std::vector<float> out = embedding;
  float mx = -std::numeric_limits<float>::infinity();
  for (float v : out) mx = std::max(mx, v);
  float denom = 0.f;
  for (float& v : out) {
    v = std::exp(v - mx);
    denom += v;
  }
  for (float& v : out) v /= denom;
  return out;
}

}  // namespace agl::infer
