// The transport-neutral face of the parameter server. The trainer's
// workers and control loop talk to a PsClient; whether that resolves to a
// direct method call on an in-process ParameterServer (LocalPsClient, the
// single-process fast path) or to length-prefixed frames over a loopback
// socket into another OS process (RemotePsClient, ps/remote.h) is the
// execution substrate's choice — the arithmetic, the SSP clock protocol,
// and therefore the trained bytes are identical either way.
//
// Every operation returns Status/Result so transport loss (a killed PS or
// worker process) surfaces as kUnavailable — the retryable class the
// driver's classified-retry policy maps onto process restarts.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "ps/parameter_server.h"
#include "tensor/tensor.h"

namespace agl::ps {

class PsClient {
 public:
  virtual ~PsClient() = default;

  // --- Control plane (driver / train loop) --------------------------------
  virtual agl::Status Initialize(
      const std::map<std::string, tensor::Tensor>& state) = 0;
  virtual agl::Result<std::map<std::string, ExportedParam>> ExportState() = 0;
  virtual agl::Status ImportState(
      std::map<std::string, ExportedParam> state) = 0;
  virtual agl::Status BeginSspEpoch(int num_workers,
                                    int64_t staleness_bound) = 0;
  virtual agl::Status BeginSspEpochAt(int num_workers, int64_t staleness_bound,
                                      std::vector<int64_t> clocks,
                                      int64_t committed) = 0;
  virtual agl::Status EndSspEpoch() = 0;
  virtual agl::Result<ServerStats> Stats() = 0;

  // --- Data plane (workers) -----------------------------------------------
  virtual agl::Result<std::map<std::string, tensor::Tensor>> PullAll() = 0;
  virtual agl::Status PushGradients(
      const std::map<std::string, tensor::Tensor>& grads) = 0;
  virtual agl::Result<std::map<std::string, tensor::Tensor>> PullSsp(
      int worker) = 0;
  virtual agl::Status PushSsp(int worker,
                              std::map<std::string, tensor::Tensor> grads) = 0;
  virtual agl::Status FinishSspWorker(int worker) = 0;
  virtual agl::Status CancelSsp() = 0;
};

/// The loopback: direct calls into an in-process ParameterServer. Never
/// fails with transport errors; the Status returns just forward the
/// server's own results.
class LocalPsClient : public PsClient {
 public:
  explicit LocalPsClient(ParameterServer* server) : server_(server) {}

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
  ParameterServer* server_;
};

}  // namespace agl::ps
