// GraphTrainer (§3.3): parameter-server training over self-contained k-hop
// neighborhoods.
//
// Because every GraphFeature carries its whole receptive field, workers are
// independent: each processes its own partition of the training data with
// no cross-worker communication — only pull/push against the PS. The inner
// loop is a staged pipeline per worker (§3.3.2 "training pipeline"):
//
//   reader/prep stage   — reads + vectorizes + prunes + normalizes batches
//                         one queue-depth ahead of the model computation
//                         (a dedicated thread feeding a bounded queue; in
//                         streaming mode it deserializes GraphFeatures
//                         straight off the DFS part files);
//   compute stage       — forward/backward on the worker's model replica;
//   push/pull stage     — a dedicated thread owns all PS traffic, so the
//                         gradient push and the next parameter snapshot
//                         (double-buffered through a queue) overlap the
//                         compute stage's batch handling.
//
// Consistency is a tunable ("flexible model consistency", §3.1): fully
// asynchronous, bulk-synchronous, or stale-synchronous with a bounded
// clock skew — see SyncMode.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "gnn/model.h"
#include "mr/local_dfs.h"
#include "ps/client.h"
#include "ps/parameter_server.h"
#include "subgraph/graph_feature.h"
#include "trainer/checkpoint.h"
#include "trainer/feature_source.h"

namespace agl::trainer {

/// What the labels mean (drives loss + validation metric).
enum class TaskKind {
  kSingleLabel,  // integer classes, softmax CE, accuracy
  kMultiLabel,   // {0,1}^L targets, BCE-with-logits, micro-F1
  kBinaryAuc,    // 2 classes, softmax CE, AUC on P(class 1)
};

/// Consistency model for the parameter server ("flexible model
/// consistency", §3.1/§3.3).
enum class SyncMode {
  /// Workers pull/push independently; updates apply as they arrive. The
  /// production default (Figure 7's behaviour).
  kAsync,
  /// Bulk-synchronous: per step every worker computes a gradient on the
  /// same parameter snapshot; gradients are averaged into one update.
  /// Deterministic for a fixed partition, at the cost of lock-step
  /// barriers.
  kBsp,
  /// Stale-synchronous parallel: every worker owns a clock that ticks once
  /// per batch; a worker may run at most `staleness_bound` ticks ahead of
  /// the slowest, and a tick's gradients commit as one averaged update the
  /// moment every worker has contributed it. Bound 0 reproduces kBsp
  /// bit-for-bit; ps::kUnboundedStaleness never blocks (async progress).
  kSsp,
};

struct TrainerConfig {
  gnn::ModelConfig model;
  TaskKind task = TaskKind::kSingleLabel;
  SyncMode sync_mode = SyncMode::kAsync;
  int num_workers = 1;
  int ps_shards = 4;
  nn::Adam::Options adam;
  int batch_size = 32;
  int epochs = 10;
  /// Training pipeline optimization (§3.3.2): stage threads + bounded
  /// queues. Off = the same schedule executed inline (no overlap).
  bool use_pipeline = true;
  /// Depth of the per-worker prepared-batch queue (reader stage run-ahead;
  /// pipeline memory is O(prefetch_batches x batch)).
  int prefetch_batches = 2;
  /// SSP clock slack (kSsp only): how many batches any worker may run
  /// ahead of the slowest. 0 = BSP-exact lockstep;
  /// ps::kUnboundedStaleness = never block.
  int64_t staleness_bound = 1;
  uint64_t seed = 2024;
  /// Evaluate on the validation set every `eval_every` epochs (0 = never).
  int eval_every = 1;
  /// Optional early stop when validation metric fails to improve this many
  /// evaluations in a row (0 = disabled).
  int patience = 0;
  bool verbose = false;
  /// Warm start: when non-empty, the PS is initialized from this state
  /// dict instead of fresh model weights (resume-from-checkpoint).
  std::map<std::string, tensor::Tensor> initial_state;
  /// When set, the PS snapshot is checkpointed to this DFS after every
  /// epoch as dataset "<checkpoint_prefix>-epoch-<n>" (fault tolerance for
  /// long jobs; restore with LoadCheckpoint + initial_state).
  mr::LocalDfs* checkpoint_dfs = nullptr;
  std::string checkpoint_prefix = "checkpoint";
  /// Mid-epoch fault tolerance: checkpoint the full training state (PS
  /// values + Adam moments, SSP clocks, per-worker batch cursors and RNG
  /// streams) to the rolling dataset "<checkpoint_prefix>-mid" every this
  /// many per-worker batches (0 = epoch-boundary checkpoints only). Needs
  /// checkpoint_dfs and a deterministic mode — kBsp or kSsp; kAsync and
  /// TrainStreaming are rejected. Resume is bit-exact for kBsp and for
  /// kSsp at staleness bound 0.
  int64_t checkpoint_every_batches = 0;
  /// When true and "<checkpoint_prefix>-mid" exists on checkpoint_dfs,
  /// training resumes from it (mid-epoch) instead of starting fresh. The
  /// checkpoint must have been written by a run with this config and
  /// dataset (fingerprint-checked, kFailedPrecondition otherwise). The
  /// rolling checkpoint is dropped once training completes.
  bool resume = false;

  /// Structural validation, called up front by every `agl::Run` facade
  /// entry point (and usable directly).
  agl::Status Validate() const;
};

struct EpochRecord {
  int epoch = 0;
  double mean_train_loss = 0;
  double val_metric = 0;  // NaN when not evaluated
  double seconds = 0;
  /// Time split per pipeline stage (summed across workers): preprocessing
  /// (read + subgraph vectorization + pruning + normalization), model
  /// computation (forward/backward), and PS traffic (push/pull incl. SSP
  /// gate waits). With the pipeline on hardware with spare cores, the
  /// epoch cost approaches max over stages — the §3.3.2 claim.
  double prep_seconds = 0;
  double compute_seconds = 0;
  double comm_seconds = 0;
};

struct TrainReport {
  std::vector<EpochRecord> epochs;
  double total_seconds = 0;
  double best_val_metric = 0;
  /// Final parameters (PS snapshot after the last epoch).
  std::map<std::string, tensor::Tensor> final_state;
  /// PS traffic + SSP staleness accounting for the whole run.
  ps::ServerStats ps_stats;
};

namespace internal {
/// Per-worker accumulation for one epoch (exposed for the epoch runners).
/// The three stage timers are written by different pipeline threads and
/// must stay distinct members.
struct WorkerResult {
  double loss_sum = 0;
  int64_t batches = 0;
  double prep_seconds = 0;
  double compute_seconds = 0;
  double comm_seconds = 0;
  agl::Status status;
};

/// Mid-epoch checkpoint plumbing handed from TrainLoop to the epoch
/// runners. `resume` is non-null only for the epoch being resumed into;
/// the metric pointers let the checkpoint sink stamp the live TrainLoop
/// early-stopping state into each checkpoint.
struct MidCheckpointEnv {
  mr::LocalDfs* dfs = nullptr;
  std::string dataset;  // "<checkpoint_prefix>-mid"
  uint64_t fingerprint = 0;
  int64_t every = 0;
  const TrainCheckpoint* resume = nullptr;
  const double* best_val_metric = nullptr;
  const int* bad_evals = nullptr;
};

/// Runs one epoch's workers against `client`, filling `results` (one entry
/// per active worker). `ckpt` is non-null only when mid-epoch checkpoints
/// are on. Train and TrainStreaming run worker threads; the multi-process
/// driver spawns worker processes that reach the same server over the wire.
using EpochRunner = std::function<agl::Status(
    int epoch, ps::PsClient* client, std::vector<WorkerResult>* results,
    const MidCheckpointEnv* ckpt)>;

/// Splits [0, n) into `parts` nearly equal contiguous ranges: the static
/// partition of the training set over workers, whether they are threads or
/// processes.
std::vector<std::pair<std::size_t, std::size_t>> SplitRanges(std::size_t n,
                                                             int parts);

/// The parameter-server options `config` trains against.
ps::ServerOptions PsServerOptions(const TrainerConfig& config);

/// One worker's complete epoch over its partition slice, against an
/// arbitrary PS transport — the unit the multi-process driver runs inside
/// a spawned worker process with a ps::RemotePsClient (the in-process
/// trainer reaches the same code through its epoch runners with a
/// LocalPsClient). `config.sync_mode` kSsp engages the SSP clock
/// protocol; the driver maps kBsp onto kSsp at staleness bound 0, which
/// the consistency suite proves bit-identical. The returned result's
/// `status` field carries the worker's outcome (an error Result is
/// reserved for setup failures).
agl::Result<WorkerResult> RunWorkerEpoch(
    const TrainerConfig& config,
    std::span<const subgraph::GraphFeature> train, std::size_t begin,
    std::size_t end, int worker, int epoch, ps::PsClient* client);
}  // namespace internal

/// Distributed (simulated: worker threads + in-process PS) GNN trainer.
class GraphTrainer {
 public:
  explicit GraphTrainer(const TrainerConfig& config);

  /// Trains on `train`, optionally evaluating on `val` per epoch.
  agl::Result<TrainReport> Train(
      std::span<const subgraph::GraphFeature> train,
      std::span<const subgraph::GraphFeature> val) const;

  /// Trains directly off a DFS feature dataset: each worker's reader stage
  /// streams and deserializes its round-robin share of the part files one
  /// record at a time (memory O(prefetch_batches x batch), not O(shard)).
  /// kBsp needs random access and is rejected here; use Train().
  agl::Result<TrainReport> TrainStreaming(
      const DfsFeatureSource& source,
      std::span<const subgraph::GraphFeature> val) const;

  /// Evaluates `state` on a dataset; returns the task metric.
  agl::Result<double> Evaluate(
      const std::map<std::string, tensor::Tensor>& state,
      std::span<const subgraph::GraphFeature> data) const;

  const TrainerConfig& config() const { return config_; }

  /// The epoch loop every substrate shares: initializes `server` from
  /// fresh weights or `initial_state`, runs `run_epoch` per epoch, and owns
  /// per-epoch records, eval cadence and patience, "-epoch-N" checkpoints,
  /// and the final state and stats. `num_examples` identifies the training
  /// set for the mid-checkpoint fingerprint; nullopt rejects mid-epoch
  /// checkpoint/resume configs up front.
  agl::Result<TrainReport> TrainLoop(
      ps::ParameterServer* server, const internal::EpochRunner& run_epoch,
      int active_workers, std::span<const subgraph::GraphFeature> val,
      std::optional<uint64_t> num_examples) const;

 private:
  agl::Status RunPipelinedEpoch(
      std::span<const subgraph::GraphFeature> train, int epoch,
      ps::PsClient* client, ThreadPool* pool,
      const std::vector<std::pair<std::size_t, std::size_t>>& partitions,
      std::vector<internal::WorkerResult>* results,
      const internal::MidCheckpointEnv* ckpt) const;
  agl::Status RunStreamingEpoch(
      const DfsFeatureSource& source, int epoch,
      ps::PsClient* client, ThreadPool* pool, int active_workers,
      std::vector<internal::WorkerResult>* results) const;
  agl::Status RunBspEpoch(
      std::span<const subgraph::GraphFeature> train, int epoch,
      ps::PsClient* client, ThreadPool* pool,
      const std::vector<std::pair<std::size_t, std::size_t>>& partitions,
      std::vector<internal::WorkerResult>* results,
      const internal::MidCheckpointEnv* ckpt) const;

  TrainerConfig config_;
};

/// Reads a checkpoint written during training back into a state dict.
agl::Result<std::map<std::string, tensor::Tensor>> LoadCheckpoint(
    const mr::LocalDfs& dfs, const std::string& prefix, int epoch);

/// Computes the task loss for a forward pass.
autograd::Variable TaskLoss(TaskKind task, const autograd::Variable& logits,
                            const gnn::PreparedBatch& batch);

/// Computes the task metric from logits.
double TaskMetric(TaskKind task, const tensor::Tensor& logits,
                  const gnn::PreparedBatch& batch);

}  // namespace agl::trainer
