// Tests for the sharded parameter server: pull/push semantics, server-side
// Adam equivalence with local training, and concurrent-worker safety; and
// for the ps/wire frames, which decode bytes straight off a socket.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "io/codec.h"
#include "ps/parameter_server.h"
#include "ps/wire.h"

namespace agl::ps {
namespace {

using tensor::Tensor;

std::map<std::string, Tensor> TinyState() {
  std::map<std::string, Tensor> state;
  state.emplace("layer0.weight", Tensor::Full(2, 3, 1.f));
  state.emplace("layer0.bias", Tensor::Full(1, 3, 0.f));
  state.emplace("layer1.weight", Tensor::Full(3, 2, -1.f));
  return state;
}

TEST(ParameterServerTest, InitializeAndPull) {
  ParameterServer server(ServerOptions{});
  server.Initialize(TinyState());
  EXPECT_EQ(server.NumParameters(), 3);
  auto pulled = server.PullAll();
  ASSERT_EQ(pulled.size(), 3u);
  EXPECT_TRUE(pulled.at("layer0.weight").AllClose(Tensor::Full(2, 3, 1.f)));
}

TEST(ParameterServerTest, PushAppliesAdamUpdate) {
  ServerOptions opts;
  opts.adam.lr = 0.1f;
  ParameterServer server(opts);
  server.Initialize(TinyState());
  std::map<std::string, Tensor> grads;
  grads.emplace("layer0.bias", Tensor::Full(1, 3, 1.f));
  ASSERT_TRUE(server.PushGradients(grads).ok());
  auto pulled = server.PullAll();
  // Adam's first step moves by ~lr against the gradient sign.
  EXPECT_NEAR(pulled.at("layer0.bias").at(0, 0), -0.1f, 1e-4f);
  // Untouched parameters stay put.
  EXPECT_TRUE(pulled.at("layer0.weight").AllClose(Tensor::Full(2, 3, 1.f)));
}

TEST(ParameterServerTest, PushUnknownKeyFails) {
  ParameterServer server(ServerOptions{});
  server.Initialize(TinyState());
  std::map<std::string, Tensor> grads;
  grads.emplace("bogus", Tensor(1, 1));
  EXPECT_EQ(server.PushGradients(grads).code(), StatusCode::kNotFound);
}

TEST(ParameterServerTest, PushShapeMismatchFails) {
  ParameterServer server(ServerOptions{});
  server.Initialize(TinyState());
  std::map<std::string, Tensor> grads;
  grads.emplace("layer0.bias", Tensor(2, 3));
  EXPECT_EQ(server.PushGradients(grads).code(),
            StatusCode::kInvalidArgument);
}

TEST(ParameterServerTest, MatchesLocalAdamTrajectory) {
  // Sequential pushes through the PS must equal a local Adam loop.
  ServerOptions opts;
  opts.adam.lr = 0.05f;
  opts.num_shards = 3;
  ParameterServer server(opts);
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor::Full(1, 1, 4.f));
  server.Initialize(state);

  Tensor local = Tensor::Full(1, 1, 4.f);
  nn::AdamState local_state;
  Rng rng(11);
  for (int step = 0; step < 25; ++step) {
    Tensor grad(1, 1);
    grad.at(0, 0) = static_cast<float>(rng.Normal(0, 1));
    std::map<std::string, Tensor> grads;
    grads.emplace("w", grad);
    ASSERT_TRUE(server.PushGradients(grads).ok());
    nn::AdamApply(opts.adam, grad, &local, &local_state);
  }
  EXPECT_TRUE(server.PullAll().at("w").AllClose(local, 1e-6f));
}

TEST(ParameterServerTest, ShardingSpreadsKeys) {
  ServerOptions opts;
  opts.num_shards = 4;
  ParameterServer server(opts);
  std::map<std::string, Tensor> state;
  for (int i = 0; i < 64; ++i) {
    state.emplace("param_" + std::to_string(i), Tensor(1, 1));
  }
  server.Initialize(state);
  EXPECT_EQ(server.NumParameters(), 64);
  auto pulled = server.PullAll();
  EXPECT_EQ(pulled.size(), 64u);
}

TEST(ParameterServerTest, ConcurrentPushersStayConsistent) {
  // N threads pushing constant gradients: the value must equal the result
  // of N*K sequential Adam steps with that gradient (Adam on a constant
  // gradient is order-independent).
  ServerOptions opts;
  opts.adam.lr = 0.01f;
  ParameterServer server(opts);
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor::Full(1, 1, 1.f));
  server.Initialize(state);

  constexpr int kThreads = 8, kPushes = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server] {
      for (int i = 0; i < kPushes; ++i) {
        std::map<std::string, Tensor> grads;
        grads.emplace("w", Tensor::Full(1, 1, 1.f));
        AGL_CHECK_OK(server.PushGradients(grads));
      }
    });
  }
  for (auto& th : threads) th.join();

  Tensor local = Tensor::Full(1, 1, 1.f);
  nn::AdamState local_state;
  for (int i = 0; i < kThreads * kPushes; ++i) {
    nn::AdamApply(opts.adam, Tensor::Full(1, 1, 1.f), &local, &local_state);
  }
  EXPECT_TRUE(server.PullAll().at("w").AllClose(local, 1e-4f));
  EXPECT_EQ(server.stats().pushes, kThreads * kPushes);
}

TEST(ParameterServerTest, StatsAccounting) {
  ParameterServer server(ServerOptions{});
  server.Initialize(TinyState());
  server.PullAll();
  auto stats = server.stats();
  EXPECT_EQ(stats.pulls, 3);
  EXPECT_EQ(stats.bytes_pulled,
            static_cast<int64_t>((6 + 3 + 6) * sizeof(float)));
}

TEST(ParameterServerTest, ReinitializeResets) {
  ParameterServer server(ServerOptions{});
  server.Initialize(TinyState());
  std::map<std::string, Tensor> smaller;
  smaller.emplace("only", Tensor(1, 1));
  server.Initialize(smaller);
  EXPECT_EQ(server.NumParameters(), 1);
}

// --- SSP clock layer -------------------------------------------------------

std::map<std::string, Tensor> UnitGrads() {
  std::map<std::string, Tensor> grads;
  grads.emplace("w", Tensor::Full(1, 1, 1.f));
  return grads;
}

TEST(SspClockTest, PullOutsideEpochFails) {
  ParameterServer server(ServerOptions{});
  server.Initialize(TinyState());
  EXPECT_EQ(server.PullSsp(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.PushSsp(0, UnitGrads()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SspClockTest, TickCommitsWhenAllWorkersContributed) {
  // Two workers, bound 0: worker 0's push alone must NOT move the value;
  // worker 1's push completes the tick and commits the averaged update.
  ServerOptions opts;
  opts.adam.lr = 0.1f;
  ParameterServer server(opts);
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor::Full(1, 1, 1.f));
  server.Initialize(state);
  server.BeginSspEpoch(2, 0);

  ASSERT_TRUE(server.PushSsp(0, UnitGrads()).ok());
  EXPECT_TRUE(server.PullAll().at("w").AllClose(Tensor::Full(1, 1, 1.f)));
  ASSERT_TRUE(server.PushSsp(1, UnitGrads()).ok());

  Tensor local = Tensor::Full(1, 1, 1.f);
  nn::AdamState local_state;
  nn::AdamApply(opts.adam, Tensor::Full(1, 1, 1.f), &local, &local_state);
  EXPECT_TRUE(server.PullAll().at("w").AllClose(local, 0.f));
  EXPECT_EQ(server.stats().ssp_commits, 1);
  server.EndSspEpoch();
}

TEST(SspClockTest, FinishedWorkerStopsHoldingTheClock) {
  ServerOptions opts;
  ParameterServer server(opts);
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor::Full(1, 1, 1.f));
  server.Initialize(state);
  server.BeginSspEpoch(2, 0);

  ASSERT_TRUE(server.PushSsp(0, UnitGrads()).ok());
  EXPECT_EQ(server.stats().ssp_commits, 0);  // tick 0 still open
  server.FinishSspWorker(1);                 // worker 1 had no batches
  EXPECT_EQ(server.stats().ssp_commits, 1);  // tick 0 commits without it
  // Worker 0 now runs alone; its next tick commits on push.
  ASSERT_TRUE(server.PushSsp(0, UnitGrads()).ok());
  EXPECT_EQ(server.stats().ssp_commits, 2);
  server.EndSspEpoch();
}

TEST(SspClockTest, GateBlocksRunaheadUntilSlowestCatchesUp) {
  ParameterServer server(ServerOptions{});
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor::Full(1, 1, 1.f));
  server.Initialize(state);
  server.BeginSspEpoch(2, /*staleness_bound=*/1);

  // Worker 0 completes one tick; at clock 1 vs min 0 (skew 1 == bound) it
  // may still pull, but after a second tick (skew 2) it must block.
  ASSERT_TRUE(server.PushSsp(0, UnitGrads()).ok());
  ASSERT_TRUE(server.PullSsp(0).ok());
  ASSERT_TRUE(server.PushSsp(0, UnitGrads()).ok());

  std::atomic<bool> admitted{false};
  std::thread runahead([&] {
    auto r = server.PullSsp(0);  // skew 2 > bound 1: blocks
    EXPECT_TRUE(r.ok());
    admitted = true;
  });
  // Give the wait a moment to engage, then release it via worker 1.
  while (server.stats().ssp_waits == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(admitted.load());
  ASSERT_TRUE(server.PushSsp(1, UnitGrads()).ok());  // min clock -> 1
  runahead.join();
  EXPECT_TRUE(admitted.load());
  auto stats = server.stats();
  EXPECT_EQ(stats.ssp_waits, 1);
  EXPECT_EQ(stats.max_staleness, 1);  // skew observed at admit time
  server.EndSspEpoch();
}

TEST(SspClockTest, CancelReleasesBlockedPullAsAborted) {
  ParameterServer server(ServerOptions{});
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor::Full(1, 1, 1.f));
  server.Initialize(state);
  server.BeginSspEpoch(2, 0);

  ASSERT_TRUE(server.PushSsp(0, UnitGrads()).ok());
  std::atomic<bool> released{false};
  std::thread blocked([&] {
    auto r = server.PullSsp(0);  // skew 1 > bound 0 (worker 1 at clock 0)
    EXPECT_EQ(r.status().code(), StatusCode::kAborted);
    released = true;
  });
  while (server.stats().ssp_waits == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(released.load());
  server.CancelSsp();
  blocked.join();
  EXPECT_TRUE(released.load());
  EXPECT_EQ(server.PushSsp(1, UnitGrads()).code(), StatusCode::kAborted);
  server.EndSspEpoch();
}

TEST(SspClockTest, EndEpochReleasesParkedPull) {
  // Ending (not cancelling) the epoch while a worker is parked at the
  // gate must fail that pull out rather than leave it waiting on clocks
  // that no longer exist.
  ParameterServer server(ServerOptions{});
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor::Full(1, 1, 1.f));
  server.Initialize(state);
  server.BeginSspEpoch(2, 0);
  ASSERT_TRUE(server.PushSsp(0, UnitGrads()).ok());
  std::atomic<bool> released{false};
  std::thread blocked([&] {
    auto r = server.PullSsp(0);  // skew 1 > bound 0
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    released = true;
  });
  while (server.stats().ssp_waits == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(released.load());
  server.EndSspEpoch();
  blocked.join();
  EXPECT_TRUE(released.load());
}

TEST(SspClockTest, PushValidatesKeysAndShapes) {
  ParameterServer server(ServerOptions{});
  server.Initialize(TinyState());
  server.BeginSspEpoch(1, 0);
  std::map<std::string, Tensor> unknown;
  unknown.emplace("nope", Tensor::Full(1, 1, 1.f));
  EXPECT_EQ(server.PushSsp(0, unknown).code(), StatusCode::kNotFound);
  std::map<std::string, Tensor> bad_shape;
  bad_shape.emplace("layer0.bias", Tensor::Full(2, 2, 1.f));
  EXPECT_EQ(server.PushSsp(0, bad_shape).code(),
            StatusCode::kInvalidArgument);
  server.EndSspEpoch();
}

TEST(SspClockTest, FinishedWorkerPullObservesZeroSkew) {
  // A finished worker's clock can sit BELOW the minimum of the unfinished
  // workers; a late pull from it must clamp to bucket 0, not index the
  // histogram negatively.
  ParameterServer server(ServerOptions{});
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor::Full(1, 1, 1.f));
  server.Initialize(state);
  server.BeginSspEpoch(2, 1);
  ASSERT_TRUE(server.PushSsp(1, UnitGrads()).ok());
  ASSERT_TRUE(server.PushSsp(1, UnitGrads()).ok());  // clock 2
  server.FinishSspWorker(0);                         // clock 0, excluded
  auto r = server.PullSsp(0);
  ASSERT_TRUE(r.ok());
  auto stats = server.stats();
  EXPECT_EQ(stats.staleness_hist[0], 1);
  EXPECT_EQ(stats.max_staleness, 0);
  server.EndSspEpoch();
}

TEST(SspClockTest, StalenessHistogramCountsAdmits) {
  ParameterServer server(ServerOptions{});
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor::Full(1, 1, 1.f));
  server.Initialize(state);
  server.BeginSspEpoch(2, 3);
  ASSERT_TRUE(server.PullSsp(0).ok());                // skew 0
  ASSERT_TRUE(server.PushSsp(0, UnitGrads()).ok());
  ASSERT_TRUE(server.PullSsp(0).ok());                // skew 1
  ASSERT_TRUE(server.PushSsp(0, UnitGrads()).ok());
  ASSERT_TRUE(server.PullSsp(0).ok());                // skew 2
  auto stats = server.stats();
  ASSERT_EQ(static_cast<int>(stats.staleness_hist.size()),
            kStalenessBuckets);
  EXPECT_EQ(stats.staleness_hist[0], 1);
  EXPECT_EQ(stats.staleness_hist[1], 1);
  EXPECT_EQ(stats.staleness_hist[2], 1);
  EXPECT_EQ(stats.ssp_pulls, 3);
  EXPECT_EQ(stats.max_staleness, 2);
  server.EndSspEpoch();
}

// --- ps/wire ----------------------------------------------------------------

/// Every opcode a PsServer serves.
const std::vector<PsOp>& ServedOps() {
  static const std::vector<PsOp> ops = {
      PsOp::kInitialize,      PsOp::kPullAll,     PsOp::kPushGradients,
      PsOp::kBeginSspEpoch,   PsOp::kBeginSspEpochAt, PsOp::kPullSsp,
      PsOp::kPushSsp,         PsOp::kFinishSspWorker, PsOp::kCancelSsp,
      PsOp::kEndSspEpoch,     PsOp::kExportState, PsOp::kImportState,
      PsOp::kStats};
  return ops;
}

std::map<std::string, ExportedParam> TinyExport() {
  std::map<std::string, ExportedParam> exported;
  ExportedParam p;
  p.value = Tensor::Full(2, 2, 0.5f);
  p.opt_state.m = Tensor::Full(2, 2, 0.25f);
  p.opt_state.v = Tensor::Full(2, 2, 0.125f);
  p.opt_state.t = 7;
  exported.emplace("w", p);
  return exported;
}

/// A request with every field set, so its frame exercises each field.
PsRequest FullRequest(PsOp op) {
  PsRequest req;
  req.op = op;
  req.worker = 2;
  req.num_workers = 3;
  req.staleness_bound = 1;
  req.clocks = {4, 5, 6};
  req.committed = 4;
  req.tensors = TinyState();
  req.exported = TinyExport();
  return req;
}

/// The response a server sends for `op`, carrying that op's payload.
PsResponse ResponseFor(PsOp op) {
  PsResponse resp;
  switch (op) {
    case PsOp::kPullAll:
    case PsOp::kPullSsp:
      resp.tensors = TinyState();
      break;
    case PsOp::kExportState:
      resp.exported = TinyExport();
      break;
    case PsOp::kStats:
      resp.stats.pulls = 9;
      resp.stats.ssp_waits = 2;
      resp.stats.max_staleness = 1;
      resp.stats.staleness_hist = {5, 3, 1};
      break;
    default:
      resp.status = agl::Status::Aborted("SSP epoch cancelled");
      break;
  }
  return resp;
}

TEST(PsWireTest, EveryOpRoundTrips) {
  for (PsOp op : ServedOps()) {
    SCOPED_TRACE(PsOpName(op));
    const std::string req_frame = EncodePsRequest(FullRequest(op));
    auto req = DecodePsRequest(req_frame);
    ASSERT_TRUE(req.ok()) << req.status().ToString();
    EXPECT_EQ(req->op, op);
    EXPECT_EQ(req->worker, 2);
    EXPECT_EQ(req->num_workers, 3);
    EXPECT_EQ(req->clocks, (std::vector<int64_t>{4, 5, 6}));
    ASSERT_EQ(req->tensors.size(), TinyState().size());
    EXPECT_EQ(req->tensors.at("layer1.weight").at(2, 1), -1.f);
    ASSERT_EQ(req->exported.size(), 1u);
    EXPECT_EQ(req->exported.at("w").opt_state.t, 7);
    EXPECT_EQ(req->exported.at("w").opt_state.v.at(1, 1), 0.125f);
    EXPECT_EQ(EncodePsRequest(*req), req_frame);

    const std::string resp_frame = EncodePsResponse(ResponseFor(op));
    auto resp = DecodePsResponse(resp_frame);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status.code(), ResponseFor(op).status.code());
    EXPECT_EQ(resp->tensors.size(), ResponseFor(op).tensors.size());
    EXPECT_EQ(resp->exported.size(), ResponseFor(op).exported.size());
    EXPECT_EQ(resp->stats.staleness_hist,
              ResponseFor(op).stats.staleness_hist);
    EXPECT_EQ(EncodePsResponse(*resp), resp_frame);
  }
}

TEST(PsWireTest, TruncatedFramesAreRejected) {
  const std::string req = EncodePsRequest(FullRequest(PsOp::kImportState));
  const std::string resp = EncodePsResponse(ResponseFor(PsOp::kPullAll));
  for (std::size_t n = 0; n < req.size(); ++n) {
    EXPECT_FALSE(DecodePsRequest(req.substr(0, n)).ok()) << n;
  }
  for (std::size_t n = 0; n < resp.size(); ++n) {
    EXPECT_FALSE(DecodePsResponse(resp.substr(0, n)).ok()) << n;
  }
}

TEST(PsWireTest, BitFlippedFramesDecodeOrFailCleanly) {
  // Each flip must yield a value or a clean Status; the sanitizer legs
  // turn any out-of-bounds read, overflow or runaway allocation into a
  // failure.
  const std::vector<std::string> requests = {
      EncodePsRequest(FullRequest(PsOp::kImportState)),
      EncodePsRequest(PsRequest{})};
  std::vector<std::string> responses;
  for (PsOp op : {PsOp::kPullAll, PsOp::kExportState, PsOp::kStats,
                  PsOp::kCancelSsp}) {
    responses.push_back(EncodePsResponse(ResponseFor(op)));
  }
  const auto flips = [](const std::string& frame, const auto& decode) {
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      std::string bad = frame;
      bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
      (void)decode(bad);
    }
  };
  for (const std::string& frame : requests) flips(frame, DecodePsRequest);
  for (const std::string& frame : responses) flips(frame, DecodePsResponse);
}

TEST(PsWireTest, UnknownAndRetiredOpcodesAreRejected) {
  // The op is the frame's first varint; the rest of a valid frame follows.
  const std::string body = EncodePsRequest(PsRequest{}).substr(1);
  for (uint64_t op : {0ull, 13ull, 15ull, 16ull, 127ull, 255ull, 256ull,
                      1ull << 40}) {
    io::BufferWriter w;
    w.PutVarint64(op);
    auto req = DecodePsRequest(w.Release() + body);
    ASSERT_FALSE(req.ok()) << "opcode " << op;
    EXPECT_EQ(req.status().code(), agl::StatusCode::kCorruption);
  }
}

}  // namespace
}  // namespace agl::ps
