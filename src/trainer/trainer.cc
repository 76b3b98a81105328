#include "trainer/trainer.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "autograd/ops.h"
#include "common/bounded_queue.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "io/codec.h"
#include "nn/metrics.h"
#include "nn/state_io.h"
#include "subgraph/batch.h"

namespace agl::trainer {

using autograd::Variable;
using subgraph::GraphFeature;

Variable TaskLoss(TaskKind task, const Variable& logits,
                  const gnn::PreparedBatch& batch) {
  switch (task) {
    case TaskKind::kSingleLabel:
    case TaskKind::kBinaryAuc:
      return autograd::SoftmaxCrossEntropy(logits, batch.labels);
    case TaskKind::kMultiLabel:
      return autograd::BceWithLogits(logits, batch.multilabels);
  }
  AGL_CHECK(false) << "unreachable";
  return Variable();
}

double TaskMetric(TaskKind task, const tensor::Tensor& logits,
                  const gnn::PreparedBatch& batch) {
  switch (task) {
    case TaskKind::kSingleLabel:
      return nn::Accuracy(logits, batch.labels);
    case TaskKind::kMultiLabel:
      return nn::MicroF1(logits, batch.multilabels);
    case TaskKind::kBinaryAuc: {
      std::vector<float> scores(logits.rows());
      std::vector<int> labels(logits.rows());
      for (int64_t i = 0; i < logits.rows(); ++i) {
        scores[i] = logits.at(i, 1) - logits.at(i, 0);  // monotone in P(1)
        labels[i] = batch.labels[i] == 1 ? 1 : 0;
      }
      return nn::Auc(scores, labels);
    }
  }
  AGL_CHECK(false) << "unreachable";
  return 0;
}

namespace {

using internal::SplitRanges;
using internal::WorkerResult;

/// Prepares one batch: merge + vectorize + prune + normalize. This is the
/// "preprocessing stage" of the training pipeline.
gnn::PreparedBatch PrepareSlice(const gnn::GnnModel& model,
                                std::span<const GraphFeature> features,
                                std::size_t begin, std::size_t end) {
  const subgraph::VectorizedBatch vec = subgraph::MergeAndVectorize(
      std::span<const GraphFeature>(features.data() + begin, end - begin));
  return model.Prepare(vec);
}

/// Source of prepared batches for one worker's reader stage. Prepare() is
/// weight-independent, so the stage runs it on its own model replica.
class BatchProducer {
 public:
  virtual ~BatchProducer() = default;
  /// Returns the next prepared batch, or nullopt once the worker's
  /// partition is exhausted for this epoch.
  virtual agl::Result<std::optional<gnn::PreparedBatch>> Next(
      const gnn::GnnModel& prep_model) = 0;
  /// Total batches this producer will yield, when known up front (span
  /// mode); nullopt for open-ended streams. Lets the compute stage mark
  /// the final gradient push so the comm stage skips the dead pull after
  /// it. Must be safe to call concurrently with Next().
  virtual std::optional<int64_t> TotalBatches() const { return {}; }
};

/// Contiguous slices of an in-memory span (the Train() path).
class SpanBatchProducer : public BatchProducer {
 public:
  /// `skip_batches` fast-forwards past batches a resumed epoch already
  /// completed (TotalBatches then reports the remaining count).
  SpanBatchProducer(std::span<const GraphFeature> features,
                    std::size_t begin, std::size_t end, std::size_t bs,
                    std::size_t skip_batches = 0)
      : features_(features),
        begin_(std::min(end, begin + skip_batches * bs)),
        next_(begin_),
        end_(end),
        bs_(bs) {}

  agl::Result<std::optional<gnn::PreparedBatch>> Next(
      const gnn::GnnModel& prep_model) override {
    if (next_ >= end_) return std::optional<gnn::PreparedBatch>();
    const std::size_t s = next_;
    const std::size_t e = std::min(end_, s + bs_);
    next_ = e;
    return std::optional<gnn::PreparedBatch>(
        PrepareSlice(prep_model, features_, s, e));
  }

  std::optional<int64_t> TotalBatches() const override {
    return static_cast<int64_t>((end_ - begin_ + bs_ - 1) / bs_);
  }

 private:
  std::span<const GraphFeature> features_;
  const std::size_t begin_;
  std::size_t next_;
  const std::size_t end_;
  const std::size_t bs_;
};

/// Batches deserialized straight off the DFS part files (TrainStreaming):
/// the shard reader keeps memory bounded; this stage vectorizes them.
class StreamBatchProducer : public BatchProducer {
 public:
  explicit StreamBatchProducer(std::unique_ptr<StreamingShardReader> reader)
      : reader_(std::move(reader)) {}

  agl::Result<std::optional<gnn::PreparedBatch>> Next(
      const gnn::GnnModel& prep_model) override {
    AGL_ASSIGN_OR_RETURN(std::vector<GraphFeature> features,
                         reader_->Next());
    if (features.empty()) return std::optional<gnn::PreparedBatch>();
    return std::optional<gnn::PreparedBatch>(
        PrepareSlice(prep_model, features, 0, features.size()));
  }

 private:
  std::unique_ptr<StreamingShardReader> reader_;
};

/// One gradient set travelling from the compute stage to the push/pull
/// stage. `last` tells the comm stage not to pull a snapshot nobody will
/// consume (and, under SSP, not to park at the gate for it).
struct GradMsg {
  std::map<std::string, tensor::Tensor> grads;
  bool last = false;
};

using Snapshot = std::map<std::string, tensor::Tensor>;

/// Everything one worker's pipeline stages share for one epoch. The PS is
/// reached through the transport-neutral client, so the same pipeline
/// runs against the in-process server or a remote PS process.
struct WorkerEpochContext {
  const TrainerConfig* config;
  ps::PsClient* server;
  int worker;
  int epoch;
  bool ssp;
  /// Mid-epoch checkpoint barrier (null = no mid-epoch checkpoints).
  CheckpointCoordinator* coord = nullptr;
  /// Per-worker batches already completed before this run of the epoch
  /// (non-zero only when resuming); ticks continue from here.
  int64_t base_tick = 0;
  /// This worker's restored cursor (null unless resuming).
  const WorkerCursor* resume_cursor = nullptr;
};

/// Pulls a parameter snapshot through the mode-appropriate path.
agl::Result<Snapshot> PullSnapshot(const WorkerEpochContext& ctx) {
  if (ctx.ssp) return ctx.server->PullSsp(ctx.worker);
  return ctx.server->PullAll();
}

/// Pushes one gradient set through the mode-appropriate path.
agl::Status PushGrads(const WorkerEpochContext& ctx, GradMsg msg) {
  if (ctx.ssp) return ctx.server->PushSsp(ctx.worker, std::move(msg.grads));
  return ctx.server->PushGradients(msg.grads);
}

/// Forward/backward for one batch on the worker's replica; fills `out`
/// with the named gradients.
agl::Status ComputeBatch(const WorkerEpochContext& ctx, gnn::GnnModel* model,
                         Rng* rng, const Snapshot& snapshot,
                         const gnn::PreparedBatch& batch, WorkerResult* res,
                         GradMsg* out) {
  AGL_RETURN_IF_ERROR(model->LoadStateDict(snapshot));
  Variable logits = model->Forward(batch, /*training=*/true, rng);
  Variable loss = TaskLoss(ctx.config->task, logits, batch);
  autograd::Backward(loss);
  res->loss_sum += loss.value().at(0, 0);
  res->batches++;
  for (const nn::NamedParameter& p : model->Parameters()) {
    if (p.variable.node()->has_grad()) {
      out->grads.emplace(p.name, p.variable.grad());
    }
  }
  // Failpoint "trainer.step": an injected fault here aborts training after
  // this batch's compute, and the pipeline must tear down without
  // deadlocking (the legacy fault_injector hook's contract).
  return fail::MaybeFail("trainer.step");
}

/// The staged pipeline for one worker-epoch:
///
///   [prep thread] --PreparedBatch--> [compute] --GradMsg--> [comm thread]
///                     bounded queue              bounded queue
///                                    <--Snapshot--
///                                      bounded queue (double buffer)
///
/// The comm thread owns every PS interaction: it pre-pulls the snapshot
/// for step t+1 right after pushing step t's gradients, so PS traffic
/// (including SSP gate waits) overlaps the reader stage's run-ahead. The
/// compute stage consumes snapshots in step order, which keeps the
/// schedule's arithmetic identical to the inline (use_pipeline=false)
/// execution — and, at staleness bound 0, identical to kBsp.
///
/// Teardown invariant: every exit path (end-of-data, injected fault, PS
/// error, SSP cancellation) cancels all three queues and, under SSP, the
/// server's clock gate, so each stage thread is always joinable.
void RunPipelinedWorker(const WorkerEpochContext& ctx,
                        BatchProducer* producer, WorkerResult* res) {
  const TrainerConfig& config = *ctx.config;
  gnn::GnnModel model(config.model);
  gnn::GnnModel prep_model(config.model);
  Rng rng(DeriveSeed(config.seed,
                     static_cast<uint64_t>(ctx.epoch) * 1000 + ctx.worker));
  if (ctx.resume_cursor != nullptr) {
    // Resume mid-epoch: continue the dropout RNG stream and the loss
    // accounting exactly where the checkpoint froze them.
    if (!ctx.resume_cursor->rng_state.empty()) {
      std::istringstream iss(ctx.resume_cursor->rng_state);
      iss >> rng.engine();
    }
    res->loss_sum = ctx.resume_cursor->loss_sum;
    res->batches = ctx.resume_cursor->next_batch;
  }
  // Snapshot of this worker's position right after it computed batch
  // `tick - 1`, i.e. with `tick` batches done and their RNG draws
  // consumed. Only taken at checkpoint ticks (serializing the engine per
  // batch would be waste).
  const auto make_cursor = [&](int64_t tick) {
    WorkerCursor cursor;
    cursor.next_batch = tick;
    cursor.loss_sum = res->loss_sum;
    std::ostringstream oss;
    oss << rng.engine();
    cursor.rng_state = oss.str();
    return cursor;
  };

  agl::Status status;  // first failure from any stage of this worker

  if (!config.use_pipeline) {
    // Inline execution of the same schedule: prep, pull, compute, push.
    int64_t tick = ctx.base_tick;
    while (status.ok()) {
      Stopwatch prep_watch;
      auto next = producer->Next(prep_model);
      res->prep_seconds += prep_watch.Seconds();
      if (!next.ok()) {
        status = next.status();
        break;
      }
      if (!next->has_value()) break;
      Stopwatch comm_watch;
      auto snapshot = PullSnapshot(ctx);
      res->comm_seconds += comm_watch.Seconds();
      if (!snapshot.ok()) {
        status = snapshot.status();
        break;
      }
      Stopwatch compute_watch;
      GradMsg msg;
      status = ComputeBatch(ctx, &model, &rng, *snapshot, **next, res, &msg);
      res->compute_seconds += compute_watch.Seconds();
      if (!status.ok()) break;
      ++tick;
      if (ctx.coord != nullptr && ctx.coord->IsCheckpointTick(tick)) {
        ctx.coord->Deposit(ctx.worker, tick, make_cursor(tick));
      }
      Stopwatch push_watch;
      status = PushGrads(ctx, std::move(msg));
      res->comm_seconds += push_watch.Seconds();
      if (status.ok() && ctx.coord != nullptr) {
        status = ctx.coord->Arrive(ctx.worker, tick);
      }
    }
  } else {
    BoundedQueue<gnn::PreparedBatch> prep_q(
        static_cast<std::size_t>(std::max(1, config.prefetch_batches)));
    BoundedQueue<GradMsg> grad_q(1);
    BoundedQueue<Snapshot> snap_q(1);
    agl::Status prep_status;  // written by prep thread, read after join
    agl::Status comm_status;  // written by comm thread, read after join
    const auto cancel_all = [&] {
      prep_q.Cancel();
      grad_q.Cancel();
      snap_q.Cancel();
    };

    std::thread prep_thread([&] {
      while (true) {
        Stopwatch prep_watch;
        auto next = producer->Next(prep_model);
        res->prep_seconds += prep_watch.Seconds();
        if (!next.ok()) {
          prep_status = next.status();
          cancel_all();
          return;
        }
        if (!next->has_value()) {
          prep_q.Close();
          return;
        }
        if (!prep_q.Push(std::move(**next))) return;  // torn down
      }
    });

    std::thread comm_thread([&] {
      // Times PS interactions only (incl. SSP gate waits), not the idle
      // time spent waiting for the compute stage's gradients.
      const auto timed_pull = [&] {
        Stopwatch watch;
        auto snapshot = PullSnapshot(ctx);
        res->comm_seconds += watch.Seconds();
        return snapshot;
      };
      auto first = timed_pull();
      if (!first.ok()) {
        comm_status = first.status();
        cancel_all();
        return;
      }
      if (!snap_q.Push(std::move(*first))) return;
      GradMsg msg;
      int64_t pushed = ctx.base_tick;
      while (grad_q.Pop(&msg)) {
        const bool last = msg.last;
        Stopwatch push_watch;
        agl::Status s = PushGrads(ctx, std::move(msg));
        res->comm_seconds += push_watch.Seconds();
        if (s.ok()) {
          ++pushed;
          // Checkpoint barrier: parks here (post-push, pre-pull) at
          // checkpoint ticks until every worker's push for this tick has
          // landed; the last arrival snapshots the quiescent PS.
          if (ctx.coord != nullptr) {
            s = ctx.coord->Arrive(ctx.worker, pushed);
          }
        }
        if (s.ok()) {
          if (last) return;  // nobody will consume another snapshot
          // Double buffer: pre-pull the next step's snapshot while the
          // compute stage chews on the batch it already holds.
          auto snapshot = timed_pull();
          if (snapshot.ok()) {
            if (!snap_q.Push(std::move(*snapshot))) break;
            continue;
          }
          s = snapshot.status();
        }
        comm_status = s;
        cancel_all();
        if (ctx.coord != nullptr) ctx.coord->Cancel();
        return;
      }
    });

    const std::optional<int64_t> total_batches = producer->TotalBatches();
    int64_t tick = ctx.base_tick;
    gnn::PreparedBatch batch;
    bool have = prep_q.Pop(&batch);
    while (have) {
      Snapshot snapshot;
      if (!snap_q.Pop(&snapshot)) break;  // comm stage failed
      Stopwatch compute_watch;
      GradMsg msg;
      status = ComputeBatch(ctx, &model, &rng, snapshot, batch, res, &msg);
      res->compute_seconds += compute_watch.Seconds();
      if (!status.ok()) break;
      ++tick;
      // Cursor deposit must precede handing the comm stage this tick's
      // gradient, so the worker's own barrier arrival always finds it.
      if (ctx.coord != nullptr && ctx.coord->IsCheckpointTick(tick)) {
        ctx.coord->Deposit(ctx.worker, tick, make_cursor(tick));
      }
      // Mark the epoch's final push: exactly when the batch count is
      // known up front, best-effort (non-blocking peek at the reader
      // stage) for open-ended streams. A false negative only costs the
      // one spare pull the marker exists to avoid.
      gnn::PreparedBatch next;
      bool have_next = false;
      if (total_batches.has_value()) {
        msg.last = tick - ctx.base_tick == *total_batches;
      } else {
        switch (prep_q.TryPop(&next)) {
          case BoundedQueue<gnn::PreparedBatch>::TryPopResult::kItem:
            have_next = true;
            break;
          case BoundedQueue<gnn::PreparedBatch>::TryPopResult::kDone:
            msg.last = true;
            break;
          case BoundedQueue<gnn::PreparedBatch>::TryPopResult::kEmpty:
            break;
        }
      }
      const bool last = msg.last;
      if (!grad_q.Push(std::move(msg))) break;
      if (last) break;
      if (have_next) {
        batch = std::move(next);
      } else {
        have = prep_q.Pop(&batch);
      }
    }
    grad_q.Close();
    if (!status.ok()) {
      // Injected fault / compute failure: release every stage, including
      // peers blocked at the SSP gate or checkpoint barrier on other
      // workers.
      cancel_all();
      if (ctx.ssp) ctx.server->CancelSsp();
      if (ctx.coord != nullptr) ctx.coord->Cancel();
    }
    prep_thread.join();
    comm_thread.join();
    if (status.ok() && !prep_status.ok()) status = prep_status;
    if (status.ok() && !comm_status.ok()) status = comm_status;
  }

  if (!status.ok() && status.code() != agl::StatusCode::kAborted) {
    // A primary failure (not the echo of someone else's cancellation)
    // must release peers blocked at the clock gate or checkpoint barrier.
    if (ctx.ssp) ctx.server->CancelSsp();
    if (ctx.coord != nullptr) ctx.coord->Cancel();
  }
  if (ctx.ssp) {
    // Transport loss here (a dead PS process) must surface: peers would
    // otherwise wait forever on this worker's clock.
    const agl::Status finish = ctx.server->FinishSspWorker(ctx.worker);
    if (status.ok() && !finish.ok()) status = finish;
  }
  if (ctx.coord != nullptr) ctx.coord->Finish(ctx.worker);
  res->status = status;
}

/// Surfaces the most informative status: a primary error beats the
/// kAborted echoes that cancellation spreads to the other workers. An
/// injected crash is also kAborted, so it ranks between the two — it is
/// the root cause, the echoes are not.
agl::Status CollectWorkerStatuses(const std::vector<WorkerResult>& results) {
  for (const WorkerResult& r : results) {
    if (!r.status.ok() && r.status.code() != agl::StatusCode::kAborted) {
      return r.status;
    }
  }
  for (const WorkerResult& r : results) {
    if (fail::IsInjectedCrash(r.status)) return r.status;
  }
  for (const WorkerResult& r : results) {
    AGL_RETURN_IF_ERROR(r.status);
  }
  return agl::Status::OK();
}

}  // namespace

agl::Status TrainerConfig::Validate() const {
  if (model.num_layers < 1) {
    return agl::Status::InvalidArgument(
        "TrainerConfig: model.num_layers must be >= 1");
  }
  if (model.in_dim <= 0 || model.hidden_dim <= 0 || model.out_dim <= 0) {
    return agl::Status::InvalidArgument(
        "TrainerConfig: model dimensions must be positive");
  }
  if (num_workers < 1 || ps_shards < 1) {
    return agl::Status::InvalidArgument(
        "TrainerConfig: num_workers and ps_shards must be >= 1");
  }
  if (batch_size < 1 || epochs < 1) {
    return agl::Status::InvalidArgument(
        "TrainerConfig: batch_size and epochs must be >= 1");
  }
  if (use_pipeline && prefetch_batches < 1) {
    return agl::Status::InvalidArgument(
        "TrainerConfig: the pipeline needs prefetch_batches >= 1");
  }
  if (staleness_bound < 0 && staleness_bound != ps::kUnboundedStaleness) {
    return agl::Status::InvalidArgument(
        "TrainerConfig: staleness_bound must be >= 0 (or "
        "kUnboundedStaleness)");
  }
  if (eval_every < 0 || patience < 0) {
    return agl::Status::InvalidArgument(
        "TrainerConfig: eval_every and patience must be >= 0");
  }
  if (checkpoint_every_batches < 0) {
    return agl::Status::InvalidArgument(
        "TrainerConfig: checkpoint_every_batches must be >= 0");
  }
  if ((checkpoint_every_batches > 0 || resume) &&
      checkpoint_dfs == nullptr) {
    return agl::Status::InvalidArgument(
        "TrainerConfig: mid-epoch checkpointing/resume needs "
        "checkpoint_dfs");
  }
  return agl::Status::OK();
}

GraphTrainer::GraphTrainer(const TrainerConfig& config) : config_(config) {}

agl::Result<std::map<std::string, tensor::Tensor>> LoadCheckpoint(
    const mr::LocalDfs& dfs, const std::string& prefix, int epoch) {
  AGL_ASSIGN_OR_RETURN(
      std::vector<std::string> records,
      dfs.ReadDataset(prefix + "-epoch-" + std::to_string(epoch)));
  if (records.size() != 1) {
    return agl::Status::Corruption("checkpoint must hold exactly 1 record");
  }
  return nn::ParseStateDict(records[0]);
}

agl::Result<TrainReport> GraphTrainer::TrainLoop(
    ps::ParameterServer* server, const internal::EpochRunner& run_epoch,
    int active_workers, std::span<const GraphFeature> val,
    std::optional<uint64_t> num_examples) const {
  if (config_.staleness_bound < 0) {
    return agl::Status::InvalidArgument("staleness_bound must be >= 0");
  }
  const bool want_mid = config_.checkpoint_every_batches > 0 ||
                        config_.resume;
  if (want_mid) {
    if (!num_examples.has_value()) {
      return agl::Status::InvalidArgument(
          "mid-epoch checkpoint/resume is only supported by Train()");
    }
    if (config_.checkpoint_dfs == nullptr) {
      return agl::Status::InvalidArgument(
          "checkpoint_every_batches/resume need checkpoint_dfs");
    }
    if (config_.sync_mode == SyncMode::kAsync) {
      return agl::Status::InvalidArgument(
          "mid-epoch checkpoints need a deterministic mode (kBsp or "
          "kSsp); kAsync has no replayable schedule");
    }
  }
  Stopwatch total_watch;

  // Global model: provides the initial parameter values (and the layer
  // shapes every worker replica shares). A non-empty initial_state warm-
  // starts from a checkpoint instead.
  gnn::GnnModel init_model(config_.model);
  // The loop reaches the caller's server through the loopback client; the
  // multi-process driver serves the same server to its worker processes
  // over the wire.
  ps::LocalPsClient client(server);
  if (config_.initial_state.empty()) {
    AGL_RETURN_IF_ERROR(client.Initialize(init_model.StateDict()));
  } else {
    AGL_RETURN_IF_ERROR(init_model.LoadStateDict(config_.initial_state));
    AGL_RETURN_IF_ERROR(client.Initialize(config_.initial_state));
  }

  TrainReport report;
  report.best_val_metric = -std::numeric_limits<double>::infinity();
  int bad_evals = 0;

  // Fingerprint of everything that shapes the training schedule and
  // arithmetic: a mid-epoch checkpoint is only resumable into an
  // identical run. The initial state dict covers the model architecture
  // and seed-derived init (or the warm start).
  uint64_t fingerprint = 0;
  std::string mid_name;
  if (want_mid) {
    io::BufferWriter fp;
    fp.PutVarint64(static_cast<uint64_t>(config_.sync_mode));
    fp.PutVarint64(static_cast<uint64_t>(config_.task));
    fp.PutVarint64(static_cast<uint64_t>(active_workers));
    fp.PutVarint64(static_cast<uint64_t>(config_.batch_size));
    fp.PutVarint64(static_cast<uint64_t>(config_.staleness_bound));
    fp.PutVarint64(config_.seed);
    fp.PutVarint64(*num_examples);
    fp.PutString(nn::SerializeStateDict(init_model.StateDict()));
    fingerprint = Fnv1aHash(fp.Release());
    mid_name = MidCheckpointName(config_.checkpoint_prefix);
  }

  int start_epoch = 0;
  std::optional<TrainCheckpoint> resume_ckpt;
  if (config_.resume && config_.checkpoint_dfs->DatasetExists(mid_name)) {
    AGL_ASSIGN_OR_RETURN(std::vector<std::string> records,
                         config_.checkpoint_dfs->ReadDataset(mid_name));
    if (records.size() != 1) {
      return agl::Status::Corruption(
          "mid-epoch checkpoint must hold exactly 1 record");
    }
    AGL_ASSIGN_OR_RETURN(TrainCheckpoint loaded,
                         ParseTrainCheckpoint(records[0], fingerprint));
    if (static_cast<int>(loaded.cursors.size()) != active_workers) {
      return agl::Status::FailedPrecondition(
          "mid-epoch checkpoint worker count mismatch");
    }
    resume_ckpt = std::move(loaded);
    AGL_RETURN_IF_ERROR(client.ImportState(resume_ckpt->ps_state));
    start_epoch = static_cast<int>(resume_ckpt->epoch);
    report.best_val_metric = resume_ckpt->best_val_metric;
    bad_evals = static_cast<int>(resume_ckpt->bad_evals);
  }

  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    Stopwatch epoch_watch;
    std::vector<WorkerResult> results(active_workers);
    internal::MidCheckpointEnv env;
    const internal::MidCheckpointEnv* env_ptr = nullptr;
    const bool resume_this_epoch =
        resume_ckpt.has_value() && epoch == start_epoch;
    if (config_.checkpoint_every_batches > 0 || resume_this_epoch) {
      env.dfs = config_.checkpoint_dfs;
      env.dataset = mid_name;
      env.fingerprint = fingerprint;
      env.every = config_.checkpoint_every_batches;
      env.resume = resume_this_epoch ? &*resume_ckpt : nullptr;
      env.best_val_metric = &report.best_val_metric;
      env.bad_evals = &bad_evals;
      env_ptr = &env;
    }
    AGL_RETURN_IF_ERROR(run_epoch(epoch, &client, &results, env_ptr));

    EpochRecord rec;
    rec.epoch = epoch;
    double loss_sum = 0;
    int64_t batches = 0;
    for (const WorkerResult& r : results) {
      loss_sum += r.loss_sum;
      batches += r.batches;
      rec.prep_seconds += r.prep_seconds;
      rec.compute_seconds += r.compute_seconds;
      rec.comm_seconds += r.comm_seconds;
    }
    rec.mean_train_loss = batches > 0 ? loss_sum / batches : 0;
    rec.seconds = epoch_watch.Seconds();
    rec.val_metric = std::numeric_limits<double>::quiet_NaN();

    if (!val.empty() && config_.eval_every > 0 &&
        (epoch + 1) % config_.eval_every == 0) {
      AGL_ASSIGN_OR_RETURN(const Snapshot eval_state, client.PullAll());
      AGL_ASSIGN_OR_RETURN(rec.val_metric, Evaluate(eval_state, val));
      if (rec.val_metric > report.best_val_metric) {
        report.best_val_metric = rec.val_metric;
        bad_evals = 0;
      } else {
        ++bad_evals;
      }
    }
    if (config_.verbose) {
      AGL_LOG(Info) << "epoch " << epoch << " loss " << rec.mean_train_loss
                    << " val " << rec.val_metric << " (" << rec.seconds
                    << "s)";
    }
    report.epochs.push_back(rec);
    if (config_.checkpoint_dfs != nullptr) {
      AGL_ASSIGN_OR_RETURN(const Snapshot ckpt_state, client.PullAll());
      AGL_RETURN_IF_ERROR(config_.checkpoint_dfs->WriteDataset(
          config_.checkpoint_prefix + "-epoch-" + std::to_string(epoch),
          {nn::SerializeStateDict(ckpt_state)}, /*num_parts=*/1));
    }
    if (config_.patience > 0 && bad_evals >= config_.patience) break;
  }

  // Training completed: the rolling mid-epoch checkpoint would otherwise
  // make a later resume=true run silently redo finished work.
  if (want_mid && config_.checkpoint_dfs->DatasetExists(mid_name)) {
    AGL_RETURN_IF_ERROR(config_.checkpoint_dfs->DropDataset(mid_name));
  }

  AGL_ASSIGN_OR_RETURN(report.final_state, client.PullAll());
  AGL_ASSIGN_OR_RETURN(report.ps_stats, client.Stats());
  report.total_seconds = total_watch.Seconds();
  return report;
}

agl::Result<TrainReport> GraphTrainer::Train(
    std::span<const GraphFeature> train,
    std::span<const GraphFeature> val) const {
  if (train.empty()) {
    return agl::Status::InvalidArgument("empty training set");
  }
  // Static partition of the training data across workers (the paper's
  // workers each own a partition of GraphFeatures on the DFS).
  const auto partitions = SplitRanges(train.size(), config_.num_workers);
  const int active_workers = static_cast<int>(partitions.size());

  ps::ParameterServer server(internal::PsServerOptions(config_));
  ThreadPool pool(static_cast<std::size_t>(active_workers));
  return TrainLoop(
      &server,
      [&](int epoch, ps::PsClient* client, std::vector<WorkerResult>* results,
          const internal::MidCheckpointEnv* ckpt) {
        if (config_.sync_mode == SyncMode::kBsp) {
          return RunBspEpoch(train, epoch, client, &pool, partitions,
                             results, ckpt);
        }
        return RunPipelinedEpoch(train, epoch, client, &pool, partitions,
                                 results, ckpt);
      },
      active_workers, val, static_cast<uint64_t>(train.size()));
}

agl::Result<TrainReport> GraphTrainer::TrainStreaming(
    const DfsFeatureSource& source,
    std::span<const GraphFeature> val) const {
  if (config_.sync_mode == SyncMode::kBsp) {
    return agl::Status::InvalidArgument(
        "kBsp needs random access; use Train()");
  }
  if (source.num_parts() == 0) {
    return agl::Status::InvalidArgument("empty feature source");
  }
  // More workers than part files would only idle: parts are the
  // round-robin granularity of the stream.
  const int active_workers = static_cast<int>(
      std::min<int64_t>(std::max(1, config_.num_workers),
                        source.num_parts()));

  ps::ParameterServer server(internal::PsServerOptions(config_));
  ThreadPool pool(static_cast<std::size_t>(active_workers));
  return TrainLoop(
      &server,
      [&](int epoch, ps::PsClient* client, std::vector<WorkerResult>* results,
          const internal::MidCheckpointEnv* ckpt) {
        (void)ckpt;  // validation rejects mid-epoch checkpoints up front
        return RunStreamingEpoch(source, epoch, client, &pool,
                                 active_workers, results);
      },
      active_workers, val, std::nullopt);
}

agl::Status GraphTrainer::RunPipelinedEpoch(
    std::span<const GraphFeature> train, int epoch,
    ps::PsClient* client, ThreadPool* pool,
    const std::vector<std::pair<std::size_t, std::size_t>>& partitions,
    std::vector<WorkerResult>* results,
    const internal::MidCheckpointEnv* ckpt) const {
  const int active_workers = static_cast<int>(partitions.size());
  const bool ssp = config_.sync_mode == SyncMode::kSsp;
  const TrainCheckpoint* resume = ckpt != nullptr ? ckpt->resume : nullptr;
  const int64_t base_tick = resume != nullptr ? resume->tick : 0;
  if (ssp) {
    if (resume != nullptr) {
      // The checkpoint barrier guarantees every worker's clock equalled
      // the committed tick; restore both instead of starting at 0.
      std::vector<int64_t> clocks;
      clocks.reserve(resume->cursors.size());
      for (const WorkerCursor& c : resume->cursors) {
        clocks.push_back(c.next_batch);
      }
      AGL_RETURN_IF_ERROR(
          client->BeginSspEpochAt(active_workers, config_.staleness_bound,
                                  std::move(clocks), resume->tick));
    } else {
      AGL_RETURN_IF_ERROR(
          client->BeginSspEpoch(active_workers, config_.staleness_bound));
    }
  }

  std::optional<CheckpointCoordinator> coord;
  if (ckpt != nullptr && ckpt->every > 0) {
    coord.emplace(
        active_workers, ckpt->every,
        [&, epoch](int64_t tick, std::vector<WorkerCursor> cursors) {
          TrainCheckpoint c;
          c.fingerprint = ckpt->fingerprint;
          c.epoch = epoch;
          c.tick = tick;
          c.best_val_metric = *ckpt->best_val_metric;
          c.bad_evals = *ckpt->bad_evals;
          c.cursors = std::move(cursors);
          auto exported = client->ExportState();
          if (!exported.ok()) return exported.status();
          c.ps_state = *std::move(exported);
          return ckpt->dfs->WriteDataset(
              ckpt->dataset, {SerializeTrainCheckpoint(c)},
              /*num_parts=*/1);
        });
  }

  const std::size_t bs =
      static_cast<std::size_t>(std::max(1, config_.batch_size));
  std::vector<std::future<void>> futs;
  for (int w = 0; w < active_workers; ++w) {
    futs.push_back(pool->Submit([&, w] {
      const auto [begin, end] = partitions[w];
      SpanBatchProducer producer(
          train, begin, end, bs,
          static_cast<std::size_t>(
              resume != nullptr ? resume->cursors[w].next_batch : 0));
      WorkerEpochContext ctx{&config_,
                             client,
                             w,
                             epoch,
                             ssp,
                             coord.has_value() ? &*coord : nullptr,
                             base_tick,
                             resume != nullptr ? &resume->cursors[w]
                                               : nullptr};
      RunPipelinedWorker(ctx, &producer, &(*results)[w]);
    }));
  }
  for (auto& f : futs) f.get();
  agl::Status end_status;
  if (ssp) end_status = client->EndSspEpoch();
  AGL_RETURN_IF_ERROR(CollectWorkerStatuses(*results));
  return end_status;
}

agl::Status GraphTrainer::RunStreamingEpoch(
    const DfsFeatureSource& source, int epoch, ps::PsClient* client,
    ThreadPool* pool, int active_workers,
    std::vector<WorkerResult>* results) const {
  const bool ssp = config_.sync_mode == SyncMode::kSsp;
  if (ssp) {
    AGL_RETURN_IF_ERROR(
        client->BeginSspEpoch(active_workers, config_.staleness_bound));
  }
  StreamingShardReader::Options opts;
  opts.batch_size = std::max(1, config_.batch_size);
  opts.prefetch_batches = std::max(1, config_.prefetch_batches);
  std::vector<std::future<void>> futs;
  for (int w = 0; w < active_workers; ++w) {
    futs.push_back(pool->Submit([&, w] {
      WorkerResult& res = (*results)[w];
      auto reader =
          StreamingShardReader::Open(source, w, active_workers, opts);
      if (!reader.ok()) {
        res.status = reader.status();
        if (ssp) {
          client->CancelSsp();
          client->FinishSspWorker(w);
        }
        return;
      }
      StreamBatchProducer producer(std::move(*reader));
      WorkerEpochContext ctx{&config_, client, w, epoch, ssp};
      RunPipelinedWorker(ctx, &producer, &res);
    }));
  }
  for (auto& f : futs) f.get();
  agl::Status end_status;
  if (ssp) end_status = client->EndSspEpoch();
  AGL_RETURN_IF_ERROR(CollectWorkerStatuses(*results));
  return end_status;
}

agl::Status GraphTrainer::RunBspEpoch(
    std::span<const GraphFeature> train, int epoch,
    ps::PsClient* client, ThreadPool* pool,
    const std::vector<std::pair<std::size_t, std::size_t>>& partitions,
    std::vector<WorkerResult>* results,
    const internal::MidCheckpointEnv* ckpt) const {
  const int active_workers = static_cast<int>(partitions.size());
  const std::size_t bs =
      static_cast<std::size_t>(std::max(1, config_.batch_size));
  const TrainCheckpoint* resume = ckpt != nullptr ? ckpt->resume : nullptr;

  // Lock-step rounds: the number of rounds is set by the largest
  // partition; workers with fewer batches idle in later rounds.
  std::vector<std::vector<std::size_t>> starts(active_workers);
  std::size_t rounds = 0;
  std::size_t min_rounds = std::numeric_limits<std::size_t>::max();
  for (int w = 0; w < active_workers; ++w) {
    const auto [begin, end] = partitions[w];
    for (std::size_t s = begin; s < end; s += bs) starts[w].push_back(s);
    rounds = std::max(rounds, starts[w].size());
    min_rounds = std::min(min_rounds, starts[w].size());
  }

  // Persistent per-worker replicas avoid per-round construction cost.
  std::vector<std::unique_ptr<gnn::GnnModel>> models;
  std::vector<Rng> rngs;
  for (int w = 0; w < active_workers; ++w) {
    models.push_back(std::make_unique<gnn::GnnModel>(config_.model));
    rngs.emplace_back(DeriveSeed(config_.seed,
                                 static_cast<uint64_t>(epoch) * 1000 + w));
  }
  std::size_t start_round = 0;
  if (resume != nullptr) {
    // A BSP round is one tick for every worker; restore each worker's
    // RNG stream and loss accounting alongside the round cursor.
    start_round = static_cast<std::size_t>(resume->tick);
    for (int w = 0; w < active_workers; ++w) {
      const WorkerCursor& c = resume->cursors[w];
      if (!c.rng_state.empty()) {
        std::istringstream iss(c.rng_state);
        iss >> rngs[w].engine();
      }
      (*results)[w].loss_sum = c.loss_sum;
      (*results)[w].batches = c.next_batch;
    }
  }

  for (std::size_t round = start_round; round < rounds; ++round) {
    // Barrier 1: every participating worker sees the same snapshot.
    AGL_ASSIGN_OR_RETURN(const Snapshot snapshot, client->PullAll());
    std::vector<std::map<std::string, tensor::Tensor>> grads(active_workers);
    std::vector<agl::Status> statuses(active_workers);
    std::vector<std::future<void>> futs;
    for (int w = 0; w < active_workers; ++w) {
      if (round >= starts[w].size()) continue;
      futs.push_back(pool->Submit([&, w] {
        WorkerResult& res = (*results)[w];
        const std::size_t s = starts[w][round];
        const std::size_t e = std::min(partitions[w].second, s + bs);
        Stopwatch prep_watch;
        gnn::PreparedBatch batch = PrepareSlice(*models[w], train, s, e);
        res.prep_seconds += prep_watch.Seconds();
        Stopwatch compute_watch;
        statuses[w] = models[w]->LoadStateDict(snapshot);
        if (!statuses[w].ok()) return;
        Variable logits = models[w]->Forward(batch, true, &rngs[w]);
        Variable loss = TaskLoss(config_.task, logits, batch);
        autograd::Backward(loss);
        res.loss_sum += loss.value().at(0, 0);
        res.batches++;
        for (const nn::NamedParameter& p : models[w]->Parameters()) {
          if (p.variable.node()->has_grad()) {
            grads[w].emplace(p.name, p.variable.grad());
          }
        }
        res.compute_seconds += compute_watch.Seconds();
        // Same "trainer.step" injection site the pipelined runner has.
        statuses[w] = fail::MaybeFail("trainer.step");
      }));
    }
    for (auto& f : futs) f.get();
    for (const agl::Status& s : statuses) AGL_RETURN_IF_ERROR(s);

    // Barrier 2: average the round's gradients into one update.
    std::map<std::string, tensor::Tensor> avg;
    int contributors = 0;
    for (int w = 0; w < active_workers; ++w) {
      if (grads[w].empty()) continue;
      ++contributors;
      for (const auto& [key, g] : grads[w]) {
        auto it = avg.find(key);
        if (it == avg.end()) {
          avg.emplace(key, g);
        } else {
          it->second.Add(g);
        }
      }
    }
    if (contributors == 0) continue;
    for (auto& [key, g] : avg) {
      g.Scale(1.f / static_cast<float>(contributors));
    }
    AGL_RETURN_IF_ERROR(client->PushGradients(avg));

    // Between rounds the main thread is the only PS client, so the
    // checkpoint is trivially consistent. Stop once the smallest
    // partition is exhausted — past that a round is no longer one tick
    // for every worker, matching the SSP coordinator's rule.
    const int64_t tick = static_cast<int64_t>(round) + 1;
    if (ckpt != nullptr && ckpt->every > 0 && tick % ckpt->every == 0 &&
        round + 1 <= min_rounds) {
      TrainCheckpoint c;
      c.fingerprint = ckpt->fingerprint;
      c.epoch = epoch;
      c.tick = tick;
      c.best_val_metric = *ckpt->best_val_metric;
      c.bad_evals = *ckpt->bad_evals;
      for (int w = 0; w < active_workers; ++w) {
        WorkerCursor cursor;
        cursor.next_batch = tick;
        cursor.loss_sum = (*results)[w].loss_sum;
        std::ostringstream oss;
        oss << rngs[w].engine();
        cursor.rng_state = oss.str();
        c.cursors.push_back(std::move(cursor));
      }
      AGL_ASSIGN_OR_RETURN(c.ps_state, client->ExportState());
      AGL_RETURN_IF_ERROR(ckpt->dfs->WriteDataset(
          ckpt->dataset, {SerializeTrainCheckpoint(c)}, /*num_parts=*/1));
    }
  }
  return agl::Status::OK();
}

namespace internal {

std::vector<std::pair<std::size_t, std::size_t>> SplitRanges(std::size_t n,
                                                             int parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  parts = std::max(1, parts);
  const std::size_t chunk = (n + parts - 1) / parts;
  for (int p = 0; p < parts; ++p) {
    const std::size_t begin = static_cast<std::size_t>(p) * chunk;
    if (begin >= n) break;
    out.emplace_back(begin, std::min(n, begin + chunk));
  }
  return out;
}

ps::ServerOptions PsServerOptions(const TrainerConfig& config) {
  ps::ServerOptions options;
  options.num_shards = config.ps_shards;
  options.adam = config.adam;
  return options;
}

agl::Result<WorkerResult> RunWorkerEpoch(
    const TrainerConfig& config, std::span<const GraphFeature> train,
    std::size_t begin, std::size_t end, int worker, int epoch,
    ps::PsClient* client) {
  if (begin > end || end > train.size()) {
    return agl::Status::InvalidArgument("RunWorkerEpoch: bad partition");
  }
  WorkerResult res;
  const bool ssp = config.sync_mode == SyncMode::kSsp;
  SpanBatchProducer producer(
      train, begin, end,
      static_cast<std::size_t>(std::max(1, config.batch_size)),
      /*start_batch=*/0);
  WorkerEpochContext ctx{&config, client, worker, epoch, ssp};
  RunPipelinedWorker(ctx, &producer, &res);
  return res;
}

}  // namespace internal

agl::Result<double> GraphTrainer::Evaluate(
    const std::map<std::string, tensor::Tensor>& state,
    std::span<const GraphFeature> data) const {
  if (data.empty()) {
    return agl::Status::InvalidArgument("empty evaluation set");
  }
  gnn::GnnModel model(config_.model);
  AGL_RETURN_IF_ERROR(model.LoadStateDict(state));
  Rng rng(config_.seed);

  // Evaluate in batches; aggregate logits/labels for a dataset-level metric
  // (AUC and micro-F1 are not batch-decomposable).
  const std::size_t bs =
      static_cast<std::size_t>(std::max(1, config_.batch_size));
  std::vector<tensor::Tensor> logit_chunks;
  std::vector<gnn::PreparedBatch> batches;
  int64_t total_targets = 0;
  for (std::size_t s = 0; s < data.size(); s += bs) {
    const std::size_t e = std::min(data.size(), s + bs);
    gnn::PreparedBatch batch = PrepareSlice(model, data, s, e);
    Variable logits = model.Forward(batch, /*training=*/false, &rng);
    total_targets += logits.value().rows();
    logit_chunks.push_back(logits.value());
    batches.push_back(std::move(batch));
  }
  // Stitch into one pseudo-batch for metric computation.
  const int64_t cols = logit_chunks[0].cols();
  tensor::Tensor all_logits(total_targets, cols);
  gnn::PreparedBatch all;
  int64_t row = 0;
  const int64_t ml_cols =
      batches[0].multilabels.rows() > 0 ? batches[0].multilabels.cols() : 0;
  if (ml_cols > 0) all.multilabels = tensor::Tensor(total_targets, ml_cols);
  for (std::size_t c = 0; c < logit_chunks.size(); ++c) {
    for (int64_t i = 0; i < logit_chunks[c].rows(); ++i, ++row) {
      std::copy(logit_chunks[c].row(i), logit_chunks[c].row(i) + cols,
                all_logits.row(row));
      all.labels.push_back(batches[c].labels[i]);
      if (ml_cols > 0) {
        std::copy(batches[c].multilabels.row(i),
                  batches[c].multilabels.row(i) + ml_cols,
                  all.multilabels.row(row));
      }
    }
  }
  return TaskMetric(config_.task, all_logits, all);
}

}  // namespace agl::trainer
