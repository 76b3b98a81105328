#include "nn/state_io.h"

#include "io/codec.h"

namespace agl::nn {
namespace {
constexpr uint32_t kMagic = 0x41474c53;  // "AGLS"
}

std::string SerializeStateDict(
    const std::map<std::string, tensor::Tensor>& state) {
  io::BufferWriter w;
  w.PutFixed32(kMagic);
  w.PutVarint64(state.size());
  for (const auto& [key, value] : state) {
    w.PutString(key);
    w.PutVarint64Signed(value.rows());
    w.PutVarint64Signed(value.cols());
    w.PutBytes(value.data(), value.size() * sizeof(float));
  }
  return w.Release();
}

agl::Result<std::map<std::string, tensor::Tensor>> ParseStateDict(
    const std::string& bytes) {
  io::BufferReader r(bytes);
  uint32_t magic;
  AGL_RETURN_IF_ERROR(r.GetFixed32(&magic));
  if (magic != kMagic) {
    return agl::Status::Corruption("state dict: bad magic");
  }
  uint64_t n;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&n));
  std::map<std::string, tensor::Tensor> state;
  for (uint64_t i = 0; i < n; ++i) {
    std::string key;
    AGL_RETURN_IF_ERROR(r.GetString(&key));
    int64_t rows, cols;
    AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&rows));
    AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&cols));
    // Bound the shape by the bytes left before multiplying or allocating.
    if (rows < 0 || cols < 0 ||
        (cols > 0 && static_cast<uint64_t>(rows) >
                         r.remaining() / sizeof(float) /
                             static_cast<uint64_t>(cols))) {
      return agl::Status::Corruption("state dict: tensor shape");
    }
    std::vector<float> data(static_cast<std::size_t>(rows * cols));
    AGL_RETURN_IF_ERROR(r.GetRaw(data.data(), data.size() * sizeof(float)));
    state.emplace(std::move(key), tensor::Tensor(rows, cols, std::move(data)));
  }
  if (!r.AtEnd()) {
    return agl::Status::Corruption("state dict: trailing bytes");
  }
  return state;
}

}  // namespace agl::nn
