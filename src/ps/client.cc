#include "ps/client.h"

#include <utility>

namespace agl::ps {

agl::Status LocalPsClient::Initialize(
    const std::map<std::string, tensor::Tensor>& state) {
  server_->Initialize(state);
  return agl::Status::OK();
}

agl::Result<std::map<std::string, ExportedParam>>
LocalPsClient::ExportState() {
  return server_->ExportState();
}

agl::Status LocalPsClient::ImportState(
    std::map<std::string, ExportedParam> state) {
  server_->ImportState(std::move(state));
  return agl::Status::OK();
}

agl::Status LocalPsClient::BeginSspEpoch(int num_workers,
                                         int64_t staleness_bound) {
  server_->BeginSspEpoch(num_workers, staleness_bound);
  return agl::Status::OK();
}

agl::Status LocalPsClient::BeginSspEpochAt(int num_workers,
                                           int64_t staleness_bound,
                                           std::vector<int64_t> clocks,
                                           int64_t committed) {
  server_->BeginSspEpochAt(num_workers, staleness_bound, std::move(clocks),
                           committed);
  return agl::Status::OK();
}

agl::Status LocalPsClient::EndSspEpoch() {
  server_->EndSspEpoch();
  return agl::Status::OK();
}

agl::Result<ServerStats> LocalPsClient::Stats() { return server_->stats(); }

agl::Result<std::map<std::string, tensor::Tensor>> LocalPsClient::PullAll() {
  return server_->PullAll();
}

agl::Status LocalPsClient::PushGradients(
    const std::map<std::string, tensor::Tensor>& grads) {
  return server_->PushGradients(grads);
}

agl::Result<std::map<std::string, tensor::Tensor>> LocalPsClient::PullSsp(
    int worker) {
  return server_->PullSsp(worker);
}

agl::Status LocalPsClient::PushSsp(int worker,
                                   std::map<std::string, tensor::Tensor> grads) {
  return server_->PushSsp(worker, std::move(grads));
}

agl::Status LocalPsClient::FinishSspWorker(int worker) {
  server_->FinishSspWorker(worker);
  return agl::Status::OK();
}

agl::Status LocalPsClient::CancelSsp() {
  server_->CancelSsp();
  return agl::Status::OK();
}

}  // namespace agl::ps
