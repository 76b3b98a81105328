// The parameter-server wire protocol: pure encode/decode of the request
// and response frames RemotePsClient and PsServer move over
// common::Socket. One request frame = one operation = one response frame
// (strict request/response alternation per connection, no pipelining).
//
// Framing is the transport's job (4-byte length prefix, common/net.h);
// this layer only defines the payload bytes: a 1-byte opcode followed by
// the operation fields in io::BufferWriter encoding. State dicts ride as
// nn::SerializeStateDict strings — the exact bytes the checkpoint and
// serve paths already use — so a pulled snapshot is bit-identical to the
// in-process map and the trained model cannot diverge across transports.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "ps/parameter_server.h"
#include "tensor/tensor.h"

namespace agl::ps {

/// Operation selector, the first byte of every request frame.
enum class PsOp : uint8_t {
  kInitialize = 1,
  kPullAll = 2,
  kPushGradients = 3,
  kBeginSspEpoch = 4,
  kBeginSspEpochAt = 5,
  kPullSsp = 6,
  kPushSsp = 7,
  kFinishSspWorker = 8,
  kCancelSsp = 9,
  kEndSspEpoch = 10,
  kExportState = 11,
  kImportState = 12,
  // 13 and 15 (NumParameters, Shutdown) are retired; the decoder rejects
  // them.
  kStats = 14,
};

const char* PsOpName(PsOp op);

/// One decoded request. Unused fields stay at their defaults; every field
/// is always encoded, so decoding is opcode-independent.
struct PsRequest {
  PsOp op = PsOp::kPullAll;
  int worker = 0;
  int num_workers = 0;
  int64_t staleness_bound = 0;
  std::vector<int64_t> clocks;
  int64_t committed = 0;
  std::map<std::string, tensor::Tensor> tensors;   // grads / initial state
  std::map<std::string, ExportedParam> exported;   // ImportState payload
};

/// One decoded response: the server-side operation outcome plus whatever
/// payload the operation produces.
struct PsResponse {
  agl::Status status;
  std::map<std::string, tensor::Tensor> tensors;   // PullAll / PullSsp
  std::map<std::string, ExportedParam> exported;   // ExportState
  ServerStats stats;
};

std::string EncodePsRequest(const PsRequest& req);
agl::Result<PsRequest> DecodePsRequest(const std::string& frame);

std::string EncodePsResponse(const PsResponse& resp);
agl::Result<PsResponse> DecodePsResponse(const std::string& frame);

/// (De)serialization of an ExportState snapshot — also used by the driver
/// to park PS state on the DFS between epoch attempts.
std::string SerializeExportedState(
    const std::map<std::string, ExportedParam>& state);
agl::Result<std::map<std::string, ExportedParam>> ParseExportedState(
    const std::string& bytes);

}  // namespace agl::ps
