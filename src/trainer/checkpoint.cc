#include "trainer/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "io/codec.h"
#include "ps/wire.h"

namespace agl::trainer {
namespace {

constexpr char kMagic[8] = {'A', 'G', 'L', 'C', 'K', 'P', 'T', '1'};

}  // namespace

std::string MidCheckpointName(const std::string& prefix) {
  return prefix + "-mid";
}

std::string SerializeTrainCheckpoint(const TrainCheckpoint& ckpt) {
  io::BufferWriter w;
  w.PutBytes(kMagic, sizeof(kMagic));
  w.PutVarint64(ckpt.fingerprint);
  w.PutVarint64(static_cast<uint64_t>(ckpt.epoch));
  w.PutVarint64(static_cast<uint64_t>(ckpt.tick));
  w.PutDouble(ckpt.best_val_metric);
  w.PutVarint64(static_cast<uint64_t>(ckpt.bad_evals));
  w.PutVarint64(ckpt.cursors.size());
  for (const WorkerCursor& c : ckpt.cursors) {
    w.PutVarint64(static_cast<uint64_t>(c.next_batch));
    w.PutDouble(c.loss_sum);
    w.PutString(c.rng_state);
  }
  ps::PutExportedParams(&w, ckpt.ps_state);
  return w.Release();
}

agl::Result<TrainCheckpoint> ParseTrainCheckpoint(
    const std::string& bytes, uint64_t expected_fingerprint) {
  io::BufferReader r(bytes);
  char magic[sizeof(kMagic)];
  AGL_RETURN_IF_ERROR(r.GetRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return agl::Status::Corruption("not a trainer checkpoint (bad magic)");
  }
  TrainCheckpoint ckpt;
  uint64_t u = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&ckpt.fingerprint));
  if (ckpt.fingerprint != expected_fingerprint) {
    return agl::Status::FailedPrecondition(
        "checkpoint was written by an incompatible run (config/dataset "
        "fingerprint mismatch)");
  }
  AGL_RETURN_IF_ERROR(r.GetVarint64(&u));
  ckpt.epoch = static_cast<int64_t>(u);
  AGL_RETURN_IF_ERROR(r.GetVarint64(&u));
  ckpt.tick = static_cast<int64_t>(u);
  AGL_RETURN_IF_ERROR(r.GetDouble(&ckpt.best_val_metric));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&u));
  ckpt.bad_evals = static_cast<int64_t>(u);
  uint64_t num_cursors = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&num_cursors));
  // Every cursor takes at least one byte, so a larger count is corrupt
  // (and must not reach the allocator).
  if (num_cursors > r.remaining()) {
    return agl::Status::Corruption("checkpoint cursor count overflows");
  }
  ckpt.cursors.resize(num_cursors);
  for (WorkerCursor& c : ckpt.cursors) {
    AGL_RETURN_IF_ERROR(r.GetVarint64(&u));
    c.next_batch = static_cast<int64_t>(u);
    AGL_RETURN_IF_ERROR(r.GetDouble(&c.loss_sum));
    AGL_RETURN_IF_ERROR(r.GetString(&c.rng_state));
  }
  AGL_RETURN_IF_ERROR(ps::GetExportedParams(&r, &ckpt.ps_state));
  if (!r.AtEnd()) {
    return agl::Status::Corruption("checkpoint has trailing bytes");
  }
  return ckpt;
}

// --- CheckpointCoordinator -------------------------------------------------

CheckpointCoordinator::CheckpointCoordinator(
    int num_workers, int64_t every,
    std::function<agl::Status(int64_t, std::vector<WorkerCursor>)> sink)
    : num_workers_(num_workers),
      every_(every),
      sink_(std::move(sink)),
      active_(num_workers),
      cursors_(num_workers),
      have_cursor_(num_workers, false) {}

bool CheckpointCoordinator::IsCheckpointTick(int64_t tick) const {
  if (every_ <= 0 || tick <= 0 || tick % every_ != 0) return false;
  common::MutexLock lock(&mu_);
  return !disabled_ && !cancelled_;
}

void CheckpointCoordinator::Deposit(int worker, int64_t tick,
                                    WorkerCursor cursor) {
  if (every_ <= 0 || tick <= 0 || tick % every_ != 0) return;
  common::MutexLock lock(&mu_);
  if (disabled_ || cancelled_) return;
  if (gen_tick_ != tick) {
    // First worker to reach this checkpoint tick opens its barrier. The
    // previous barrier fully drained before anyone proceeded past it, so
    // at most one is ever in flight.
    gen_tick_ = tick;
    arrived_ = 0;
    gen_done_ = false;
    gen_status_ = agl::Status::OK();
    std::fill(have_cursor_.begin(), have_cursor_.end(), false);
  }
  cursors_[worker] = std::move(cursor);
  have_cursor_[worker] = true;
}

agl::Status CheckpointCoordinator::Arrive(int worker, int64_t tick) {
  if (every_ <= 0 || tick <= 0 || tick % every_ != 0) {
    return agl::Status::OK();
  }
  common::MutexLock lock(&mu_);
  if (cancelled_) {
    return agl::Status::Aborted("checkpoint coordinator cancelled");
  }
  if (disabled_ || gen_tick_ != tick) return agl::Status::OK();
  if (gen_done_) return gen_status_;  // barrier abandoned by a Finish
  AGL_CHECK(have_cursor_[worker])
      << "worker " << worker << " arrived at checkpoint tick " << tick
      << " without a deposited cursor";
  ++arrived_;
  if (arrived_ >= active_) {
    // Every active worker is parked right after its push for this tick:
    // all pushed gradients are committed and nobody is pulling, so the
    // PS snapshot the sink takes is exact.
    gen_status_ = sink_(tick, cursors_);
    gen_done_ = true;
    cv_.SignalAll();
    return gen_status_;
  }
  while (!gen_done_ && !cancelled_) cv_.Wait(&mu_);
  if (gen_done_) return gen_status_;
  return agl::Status::Aborted("checkpoint coordinator cancelled");
}

void CheckpointCoordinator::Finish(int worker) {
  (void)worker;
  if (every_ <= 0) return;
  {
    common::MutexLock lock(&mu_);
    active_ = std::max(0, active_ - 1);
    disabled_ = true;
    if (gen_tick_ >= 0 && !gen_done_) {
      // Abandon the barrier in progress: without this worker it can no
      // longer describe a resumable state. Waiters proceed uncheckpointed.
      gen_done_ = true;
      gen_status_ = agl::Status::OK();
    }
  }
  cv_.SignalAll();
}

void CheckpointCoordinator::Cancel() {
  if (every_ <= 0) return;
  {
    common::MutexLock lock(&mu_);
    cancelled_ = true;
  }
  cv_.SignalAll();
}

}  // namespace agl::trainer
