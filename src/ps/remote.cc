#include "ps/remote.h"

#include <utility>

namespace agl::ps {
namespace {

/// Collapses a round trip whose server-side outcome is the only payload.
agl::Status StatusOnly(agl::Result<PsResponse> resp) {
  if (!resp.ok()) return resp.status();
  return resp->status;
}

}  // namespace

RemotePsClient::RemotePsClient(int port)
    : RemotePsClient(port, Options()) {}

RemotePsClient::RemotePsClient(int port, Options options)
    : port_(port), options_(options) {}

agl::Result<PsResponse> RemotePsClient::Call(const PsRequest& req) {
  common::Socket sock;
  {
    common::MutexLock lock(&mu_);
    if (!idle_.empty()) {
      sock = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  if (!sock.valid()) {
    auto fresh = common::ConnectLoopback(port_, options_.connect_timeout_ms);
    if (!fresh.ok()) {
      common::MutexLock lock(&mu_);
      stats_.transport_errors++;
      return fresh.status();
    }
    sock = std::move(*fresh);
    common::MutexLock lock(&mu_);
    stats_.connections_opened++;
  }
  const std::string out = EncodePsRequest(req);
  agl::Status write = sock.WriteFrame(out);
  if (!write.ok()) {
    common::MutexLock lock(&mu_);
    stats_.transport_errors++;
    return write;  // socket dropped — a fresh one is dialed next call
  }
  auto frame = sock.ReadFrame();
  if (!frame.ok()) {
    common::MutexLock lock(&mu_);
    stats_.transport_errors++;
    return frame.status();
  }
  {
    common::MutexLock lock(&mu_);
    stats_.requests++;
    stats_.bytes_sent += static_cast<int64_t>(out.size()) + 4;
    stats_.bytes_received += static_cast<int64_t>(frame->size()) + 4;
    idle_.push_back(std::move(sock));
  }
  return DecodePsResponse(*frame);
}

agl::Status RemotePsClient::Initialize(
    const std::map<std::string, tensor::Tensor>& state) {
  PsRequest req;
  req.op = PsOp::kInitialize;
  req.tensors = state;
  return StatusOnly(Call(req));
}

agl::Result<std::map<std::string, ExportedParam>>
RemotePsClient::ExportState() {
  PsRequest req;
  req.op = PsOp::kExportState;
  AGL_ASSIGN_OR_RETURN(PsResponse resp, Call(req));
  AGL_RETURN_IF_ERROR(resp.status);
  return std::move(resp.exported);
}

agl::Status RemotePsClient::ImportState(
    std::map<std::string, ExportedParam> state) {
  PsRequest req;
  req.op = PsOp::kImportState;
  req.exported = std::move(state);
  return StatusOnly(Call(req));
}

agl::Status RemotePsClient::BeginSspEpoch(int num_workers,
                                          int64_t staleness_bound) {
  PsRequest req;
  req.op = PsOp::kBeginSspEpoch;
  req.num_workers = num_workers;
  req.staleness_bound = staleness_bound;
  return StatusOnly(Call(req));
}

agl::Status RemotePsClient::BeginSspEpochAt(int num_workers,
                                            int64_t staleness_bound,
                                            std::vector<int64_t> clocks,
                                            int64_t committed) {
  PsRequest req;
  req.op = PsOp::kBeginSspEpochAt;
  req.num_workers = num_workers;
  req.staleness_bound = staleness_bound;
  req.clocks = std::move(clocks);
  req.committed = committed;
  return StatusOnly(Call(req));
}

agl::Status RemotePsClient::EndSspEpoch() {
  PsRequest req;
  req.op = PsOp::kEndSspEpoch;
  return StatusOnly(Call(req));
}

agl::Result<ServerStats> RemotePsClient::Stats() {
  PsRequest req;
  req.op = PsOp::kStats;
  AGL_ASSIGN_OR_RETURN(PsResponse resp, Call(req));
  AGL_RETURN_IF_ERROR(resp.status);
  return std::move(resp.stats);
}

agl::Result<std::map<std::string, tensor::Tensor>> RemotePsClient::PullAll() {
  PsRequest req;
  req.op = PsOp::kPullAll;
  AGL_ASSIGN_OR_RETURN(PsResponse resp, Call(req));
  AGL_RETURN_IF_ERROR(resp.status);
  return std::move(resp.tensors);
}

agl::Status RemotePsClient::PushGradients(
    const std::map<std::string, tensor::Tensor>& grads) {
  PsRequest req;
  req.op = PsOp::kPushGradients;
  req.tensors = grads;
  return StatusOnly(Call(req));
}

agl::Result<std::map<std::string, tensor::Tensor>> RemotePsClient::PullSsp(
    int worker) {
  PsRequest req;
  req.op = PsOp::kPullSsp;
  req.worker = worker;
  AGL_ASSIGN_OR_RETURN(PsResponse resp, Call(req));
  AGL_RETURN_IF_ERROR(resp.status);
  return std::move(resp.tensors);
}

agl::Status RemotePsClient::PushSsp(int worker,
                                    std::map<std::string, tensor::Tensor> grads) {
  PsRequest req;
  req.op = PsOp::kPushSsp;
  req.worker = worker;
  req.tensors = std::move(grads);
  return StatusOnly(Call(req));
}

agl::Status RemotePsClient::FinishSspWorker(int worker) {
  PsRequest req;
  req.op = PsOp::kFinishSspWorker;
  req.worker = worker;
  return StatusOnly(Call(req));
}

agl::Status RemotePsClient::CancelSsp() {
  PsRequest req;
  req.op = PsOp::kCancelSsp;
  return StatusOnly(Call(req));
}

ClientTransportStats RemotePsClient::transport_stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace agl::ps
