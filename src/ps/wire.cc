#include "ps/wire.h"

#include <cstring>
#include <string_view>
#include <utility>

#include "io/codec.h"
#include "nn/state_io.h"

namespace agl::ps {
namespace {

void PutTensor(io::BufferWriter* w, const tensor::Tensor& t) {
  w->PutVarint64(static_cast<uint64_t>(t.rows()));
  w->PutVarint64(static_cast<uint64_t>(t.cols()));
  w->PutFloatArray(std::vector<float>(t.data(), t.data() + t.size()));
}

agl::Status GetTensor(io::BufferReader* r, tensor::Tensor* out) {
  uint64_t rows = 0, cols = 0;
  AGL_RETURN_IF_ERROR(r->GetVarint64(&rows));
  AGL_RETURN_IF_ERROR(r->GetVarint64(&cols));
  std::vector<float> data;
  AGL_RETURN_IF_ERROR(r->GetFloatArray(&data));
  // rows <= size / cols keeps rows * cols from wrapping.
  if ((cols != 0 && rows > data.size() / cols) || rows * cols != data.size()) {
    return agl::Status::Corruption("ps wire: tensor size mismatch");
  }
  if (rows == 0 || cols == 0) {
    *out = tensor::Tensor();
    return agl::Status::OK();
  }
  tensor::Tensor t(static_cast<int64_t>(rows), static_cast<int64_t>(cols));
  std::memcpy(t.data(), data.data(), data.size() * sizeof(float));
  *out = std::move(t);
  return agl::Status::OK();
}

agl::Result<std::map<std::string, tensor::Tensor>> GetStateDict(
    io::BufferReader* r) {
  std::string bytes;
  AGL_RETURN_IF_ERROR(r->GetString(&bytes));
  if (bytes.empty()) return std::map<std::string, tensor::Tensor>();
  return nn::ParseStateDict(bytes);
}

void PutStateDict(io::BufferWriter* w,
                  const std::map<std::string, tensor::Tensor>& state) {
  w->PutString(state.empty() ? std::string() : nn::SerializeStateDict(state));
}

}  // namespace

const char* PsOpName(PsOp op) {
  switch (op) {
    case PsOp::kInitialize: return "Initialize";
    case PsOp::kPullAll: return "PullAll";
    case PsOp::kPushGradients: return "PushGradients";
    case PsOp::kBeginSspEpoch: return "BeginSspEpoch";
    case PsOp::kBeginSspEpochAt: return "BeginSspEpochAt";
    case PsOp::kPullSsp: return "PullSsp";
    case PsOp::kPushSsp: return "PushSsp";
    case PsOp::kFinishSspWorker: return "FinishSspWorker";
    case PsOp::kCancelSsp: return "CancelSsp";
    case PsOp::kEndSspEpoch: return "EndSspEpoch";
    case PsOp::kExportState: return "ExportState";
    case PsOp::kImportState: return "ImportState";
    case PsOp::kStats: return "Stats";
  }
  return "Unknown";
}

std::string SerializeExportedState(
    const std::map<std::string, ExportedParam>& state) {
  io::BufferWriter w;
  w.PutVarint64(state.size());
  for (const auto& [name, param] : state) {
    w.PutString(name);
    PutTensor(&w, param.value);
    w.PutVarint64(static_cast<uint64_t>(param.opt_state.t));
    PutTensor(&w, param.opt_state.m);
    PutTensor(&w, param.opt_state.v);
  }
  return w.Release();
}

agl::Result<std::map<std::string, ExportedParam>> ParseExportedState(
    const std::string& bytes) {
  io::BufferReader r(bytes);
  uint64_t n = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&n));
  std::map<std::string, ExportedParam> state;
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    AGL_RETURN_IF_ERROR(r.GetString(&name));
    ExportedParam param;
    AGL_RETURN_IF_ERROR(GetTensor(&r, &param.value));
    uint64_t t = 0;
    AGL_RETURN_IF_ERROR(r.GetVarint64(&t));
    param.opt_state.t = static_cast<int64_t>(t);
    AGL_RETURN_IF_ERROR(GetTensor(&r, &param.opt_state.m));
    AGL_RETURN_IF_ERROR(GetTensor(&r, &param.opt_state.v));
    state.emplace(std::move(name), std::move(param));
  }
  if (!r.AtEnd()) {
    return agl::Status::Corruption("ps wire: trailing bytes in export");
  }
  return state;
}

std::string EncodePsRequest(const PsRequest& req) {
  io::BufferWriter w;
  w.PutVarint64(static_cast<uint64_t>(req.op));
  w.PutVarint64Signed(req.worker);
  w.PutVarint64Signed(req.num_workers);
  w.PutVarint64Signed(req.staleness_bound);
  w.PutVarint64(req.clocks.size());
  for (int64_t c : req.clocks) w.PutVarint64Signed(c);
  w.PutVarint64Signed(req.committed);
  PutStateDict(&w, req.tensors);
  w.PutString(req.exported.empty() ? std::string()
                                   : SerializeExportedState(req.exported));
  return w.Release();
}

agl::Result<PsRequest> DecodePsRequest(const std::string& frame) {
  io::BufferReader r(frame);
  PsRequest req;
  uint64_t op = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&op));
  // PsOpName names exactly the ops a server serves, so unknown and
  // retired opcodes both fall through to "Unknown".
  if (op > 0xff || std::string_view(PsOpName(static_cast<PsOp>(op))) ==
                       "Unknown") {
    return agl::Status::Corruption("ps wire: unknown opcode " +
                                   std::to_string(op));
  }
  req.op = static_cast<PsOp>(op);
  int64_t worker = 0, num_workers = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&worker));
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&num_workers));
  req.worker = static_cast<int>(worker);
  req.num_workers = static_cast<int>(num_workers);
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&req.staleness_bound));
  uint64_t num_clocks = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&num_clocks));
  if (num_clocks > r.remaining()) {
    return agl::Status::Corruption("ps wire: clock count overflows");
  }
  req.clocks.reserve(num_clocks);
  for (uint64_t i = 0; i < num_clocks; ++i) {
    int64_t c = 0;
    AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&c));
    req.clocks.push_back(c);
  }
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&req.committed));
  AGL_ASSIGN_OR_RETURN(req.tensors, GetStateDict(&r));
  std::string exported;
  AGL_RETURN_IF_ERROR(r.GetString(&exported));
  if (!exported.empty()) {
    AGL_ASSIGN_OR_RETURN(req.exported, ParseExportedState(exported));
  }
  if (!r.AtEnd()) {
    return agl::Status::Corruption("ps wire: trailing bytes in request");
  }
  return req;
}

std::string EncodePsResponse(const PsResponse& resp) {
  io::BufferWriter w;
  w.PutVarint64(static_cast<uint64_t>(resp.status.code()));
  w.PutString(resp.status.message());
  PutStateDict(&w, resp.tensors);
  w.PutString(resp.exported.empty() ? std::string()
                                    : SerializeExportedState(resp.exported));
  const ServerStats& s = resp.stats;
  w.PutVarint64Signed(s.pulls);
  w.PutVarint64Signed(s.pushes);
  w.PutVarint64Signed(s.bytes_pulled);
  w.PutVarint64Signed(s.bytes_pushed);
  w.PutVarint64Signed(s.ssp_pulls);
  w.PutVarint64Signed(s.ssp_waits);
  w.PutVarint64Signed(s.ssp_commits);
  w.PutVarint64Signed(s.max_staleness);
  w.PutVarint64(s.staleness_hist.size());
  for (int64_t b : s.staleness_hist) w.PutVarint64Signed(b);
  return w.Release();
}

agl::Result<PsResponse> DecodePsResponse(const std::string& frame) {
  io::BufferReader r(frame);
  PsResponse resp;
  uint64_t code = 0;
  std::string message;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&code));
  AGL_RETURN_IF_ERROR(r.GetString(&message));
  if (code > static_cast<uint64_t>(agl::StatusCode::kInternal)) {
    return agl::Status::Corruption("ps wire: unknown status code " +
                                   std::to_string(code));
  }
  resp.status =
      agl::Status(static_cast<agl::StatusCode>(code), std::move(message));
  AGL_ASSIGN_OR_RETURN(resp.tensors, GetStateDict(&r));
  std::string exported;
  AGL_RETURN_IF_ERROR(r.GetString(&exported));
  if (!exported.empty()) {
    AGL_ASSIGN_OR_RETURN(resp.exported, ParseExportedState(exported));
  }
  ServerStats& s = resp.stats;
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&s.pulls));
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&s.pushes));
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&s.bytes_pulled));
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&s.bytes_pushed));
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&s.ssp_pulls));
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&s.ssp_waits));
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&s.ssp_commits));
  AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&s.max_staleness));
  uint64_t hist = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&hist));
  if (hist > r.remaining()) {
    return agl::Status::Corruption("ps wire: histogram size overflows");
  }
  s.staleness_hist.resize(hist);
  for (uint64_t i = 0; i < hist; ++i) {
    AGL_RETURN_IF_ERROR(r.GetVarint64Signed(&s.staleness_hist[i]));
  }
  if (!r.AtEnd()) {
    return agl::Status::Corruption("ps wire: trailing bytes in response");
  }
  return resp;
}

}  // namespace agl::ps
