// RemotePsClient: a PsClient whose every call becomes one request frame
// to a PsServer and one response frame back, over a small pool of
// loopback connections (one acquired per in-flight call). Pooling
// matters for SSP: a PullSsp parked at the server's clock gate keeps its
// connection blocked, and the CancelSsp that must release it travels on
// a different connection.
//
// Transport failures (server process gone, connection reset) surface as
// kUnavailable — the retryable class the driver maps to a PS restart.

#pragma once

#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/net.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ps/client.h"
#include "ps/wire.h"

namespace agl::ps {

class RemotePsClient : public PsClient {
 public:
  explicit RemotePsClient(int port) : port_(port) {}

  agl::Status Initialize(
      const std::map<std::string, tensor::Tensor>& state) override;
  agl::Result<std::map<std::string, ExportedParam>> ExportState() override;
  agl::Status ImportState(std::map<std::string, ExportedParam> state) override;
  agl::Status BeginSspEpoch(int num_workers, int64_t staleness_bound) override;
  agl::Status BeginSspEpochAt(int num_workers, int64_t staleness_bound,
                              std::vector<int64_t> clocks,
                              int64_t committed) override;
  agl::Status EndSspEpoch() override;
  agl::Result<ServerStats> Stats() override;

  agl::Result<std::map<std::string, tensor::Tensor>> PullAll() override;
  agl::Status PushGradients(
      const std::map<std::string, tensor::Tensor>& grads) override;
  agl::Result<std::map<std::string, tensor::Tensor>> PullSsp(
      int worker) override;
  agl::Status PushSsp(int worker,
                      std::map<std::string, tensor::Tensor> grads) override;
  agl::Status FinishSspWorker(int worker) override;
  agl::Status CancelSsp() override;

 private:
  /// One round trip on a pooled connection. The returned response's
  /// `status` is the server-side outcome; a non-OK Result is a transport
  /// or protocol failure.
  agl::Result<PsResponse> Call(const PsRequest& req);

  int port_;
  common::Mutex mu_;
  std::vector<common::Socket> idle_ GUARDED_BY(mu_);
};

}  // namespace agl::ps
