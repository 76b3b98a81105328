#include "ps/server.h"

#include <utility>

#include "ps/wire.h"

namespace agl::ps {
namespace {

/// Validates the BeginSspEpoch* preconditions that the in-process server
/// enforces with CHECKs — a malformed remote request must become an error
/// response, not a dead PS process.
agl::Status ValidateBeginSsp(const PsRequest& req) {
  if (req.num_workers <= 0) {
    return agl::Status::InvalidArgument("BeginSspEpoch: num_workers <= 0");
  }
  if (req.staleness_bound < 0) {
    return agl::Status::InvalidArgument("BeginSspEpoch: negative bound");
  }
  if (req.op == PsOp::kBeginSspEpochAt) {
    if (static_cast<int>(req.clocks.size()) != req.num_workers) {
      return agl::Status::InvalidArgument(
          "BeginSspEpochAt: clocks/num_workers mismatch");
    }
    if (req.committed < 0) {
      return agl::Status::InvalidArgument("BeginSspEpochAt: committed < 0");
    }
    for (int64_t c : req.clocks) {
      if (c < req.committed) {
        return agl::Status::InvalidArgument(
            "BeginSspEpochAt: clock precedes committed watermark");
      }
    }
  }
  return agl::Status::OK();
}

PsResponse Handle(ParameterServer* ps, PsRequest req) {
  PsResponse resp;
  switch (req.op) {
    case PsOp::kInitialize:
      ps->Initialize(req.tensors);
      break;
    case PsOp::kPullAll:
      resp.tensors = ps->PullAll();
      break;
    case PsOp::kPushGradients:
      resp.status = ps->PushGradients(req.tensors);
      break;
    case PsOp::kBeginSspEpoch:
      resp.status = ValidateBeginSsp(req);
      if (resp.status.ok()) {
        ps->BeginSspEpoch(req.num_workers, req.staleness_bound);
      }
      break;
    case PsOp::kBeginSspEpochAt:
      resp.status = ValidateBeginSsp(req);
      if (resp.status.ok()) {
        ps->BeginSspEpochAt(req.num_workers, req.staleness_bound,
                            std::move(req.clocks), req.committed);
      }
      break;
    case PsOp::kPullSsp: {
      auto snapshot = ps->PullSsp(req.worker);
      if (snapshot.ok()) {
        resp.tensors = *std::move(snapshot);
      } else {
        resp.status = snapshot.status();
      }
      break;
    }
    case PsOp::kPushSsp:
      resp.status = ps->PushSsp(req.worker, std::move(req.tensors));
      break;
    case PsOp::kFinishSspWorker:
      ps->FinishSspWorker(req.worker);
      break;
    case PsOp::kCancelSsp:
      ps->CancelSsp();
      break;
    case PsOp::kEndSspEpoch:
      ps->EndSspEpoch();
      break;
    case PsOp::kExportState:
      resp.exported = ps->ExportState();
      break;
    case PsOp::kImportState:
      ps->ImportState(std::move(req.exported));
      break;
    case PsOp::kStats:
      resp.stats = ps->stats();
      break;
  }
  return resp;
}

}  // namespace

agl::Status PsServer::Start() {
  AGL_ASSIGN_OR_RETURN(listener_, common::Listener::Loopback());
  {
    common::MutexLock lock(&mu_);
    started_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return agl::Status::OK();
}

void PsServer::AcceptLoop() {
  while (true) {
    auto sock = listener_.Accept();
    if (!sock.ok()) return;  // listener closed — shutdown
    common::MutexLock lock(&mu_);
    if (stopping_) return;
    stats_.connections++;
    conns_.push_back(std::make_unique<common::Socket>(std::move(*sock)));
    const std::size_t slot = conns_.size() - 1;
    conn_threads_.emplace_back([this, slot] { Serve(slot); });
  }
}

void PsServer::Serve(std::size_t slot) {
  common::Socket* sock;
  {
    common::MutexLock lock(&mu_);
    sock = conns_[slot].get();
  }
  while (true) {
    auto frame = sock->ReadFrame();
    if (!frame.ok()) return;  // peer gone (or Stop closed us)
    PsResponse resp;
    auto req = DecodePsRequest(*frame);
    if (!req.ok()) {
      resp.status = req.status();
    } else {
      resp = Handle(server_, *std::move(req));
    }
    const std::string out = EncodePsResponse(resp);
    const agl::Status write = sock->WriteFrame(out);
    {
      common::MutexLock lock(&mu_);
      stats_.requests++;
      stats_.bytes_received += static_cast<int64_t>(frame->size()) + 4;
      stats_.bytes_sent += static_cast<int64_t>(out.size()) + 4;
      if (!resp.status.ok()) stats_.failed_requests++;
    }
    if (!write.ok()) return;
  }
}

void PsServer::Stop() {
  std::thread accept;
  std::vector<std::thread> conn_threads;
  {
    common::MutexLock lock(&mu_);
    if (!started_) return;
    stopping_ = true;
    accept = std::move(accept_thread_);
    conn_threads = std::move(conn_threads_);
    conn_threads_.clear();
    // Wake every blocked ReadFrame; a handler parked inside PullSsp is
    // released by the CancelSsp below. The descriptors are released only
    // after the threads using them are joined.
    for (auto& conn : conns_) conn->Shutdown();
  }
  listener_.Shutdown();
  server_->CancelSsp();
  if (accept.joinable()) accept.join();
  for (std::thread& t : conn_threads) {
    if (t.joinable()) t.join();
  }
  listener_.Close();
  common::MutexLock lock(&mu_);
  started_ = false;
  conns_.clear();
}

PsTransportStats PsServer::transport_stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace agl::ps
