// Always-on inference service (the serving face of §3.4).
//
// A long-running process admits scoring requests into a bounded queue, a
// single serving thread coalesces adjacent pending requests into one
// batched pipeline pass (the targets flow through PartitionTargets /
// RunGraphInferBatched exactly as an offline batch would), and every pass
// shares one PersistentEmbeddingStore — so segment embeddings survive
// across requests *and* across process restarts: a service re-opened over
// the same DFS root serves warm hits out of the previous process's
// published spill file.
//
// Mutations (serve/mutation.h) interleave with requests on the same FIFO:
//
//   admit(r1) .. admit(m) .. admit(r2)
//
// guarantees r1 is scored on the pre-m graph and r2 on the post-m graph —
// a request observes exactly the mutation batches enqueued before it.
// The service's one graph index, a flat::TableGraph, serves every pass's
// pruning and the mutation path. Applying a batch (1) updates it in place,
// (2) invalidates the precisely-dirtied (node, round) store entries
// (model-aware; see mutation.h) and restamps the store with the graph
// fingerprint, maintained per mutation, and (3) incrementally re-flattens
// the dirtied targets of the configured flattened dataset, which the
// service keeps resident (flat::MaintainedDataset) and re-publishes only
// when a stored target is dirty. All three cost O(change).
// Consequence —
// the freshness/consistency contract: every served score is byte-identical
// to a cold offline RunGraphInferBatched over the tables as mutated by the
// batches admitted before the request.
//
// Failure contract: a failed pipeline pass fails every request coalesced
// into it (kUnavailable and the underlying message); a mutation batch that
// fails to apply is rolled back wholesale (by its inverses, in reverse);
// a re-flatten failure after a successful apply is reported but leaves
// serving correct (the store was already invalidated): the on-DFS dataset
// lags until the next successful batch, which re-flattens the targets of
// the failed ones too. Store corruption degrades to recompute, never to a
// wrong score.

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "flat/graphflat.h"
#include "flat/incremental.h"
#include "flat/table_graph.h"
#include "flat/tables.h"
#include "infer/graphinfer.h"
#include "infer/persistent_store.h"
#include "mr/local_dfs.h"
#include "serve/mutation.h"
#include "tensor/tensor.h"

namespace agl::serve {

struct ServeConfig {
  /// Pipeline configuration for every pass. `target_ids` is ignored (set
  /// per coalesced batch); `cache_budget_bytes` / `cache_spill_path` are
  /// ignored (the persistent store supplies the cache).
  infer::InferConfig infer;
  /// Name of the persistent embedding store under the DFS root
  /// ("<root>/<name>.spill" + "<name>.index" dataset).
  std::string store_name = "embedding_store";
  /// RAM budget of the store's resident tier (negative = unbounded).
  int64_t store_budget_bytes = -1;
  /// Admission bound: scoring requests queued but not yet picked up by the
  /// serving thread. Submit returns kResourceExhausted beyond it.
  std::size_t max_pending = 256;
  /// Coalescing cap: adjacent requests are merged into one pass while
  /// their combined target count stays within this (a single larger
  /// request still runs, alone).
  std::size_t max_batch_targets = 1024;
  /// When non-empty, the service keeps this flattened dataset fresh under
  /// mutations via flat::MaintainedDataset (it must have been produced by
  /// RunGraphFlat with `flat` over the same tables; Start checks its
  /// target set).
  std::string features_dataset;
  /// GraphFlat configuration matching `features_dataset`. Must satisfy the
  /// incremental-path requirements (sampling none; hub pass dormant).
  flat::GraphFlatConfig flat;

  agl::Status Validate() const;
};

/// Service counters (cumulative since Start).
struct ServeStats {
  int64_t admitted = 0;        // requests accepted into the queue
  int64_t rejected = 0;        // requests bounced by the admission bound
  int64_t served = 0;          // requests completed successfully
  int64_t failed = 0;          // requests failed by a pipeline error
  int64_t batches = 0;         // pipeline passes run
  int64_t batched_targets = 0;  // coalesced unique targets across passes
  int64_t mutation_batches = 0;
  int64_t mutations_applied = 0;
  int64_t invalidated_nodes = 0;  // (node, min_round) floors issued
  int64_t reflatten_runs = 0;
  int64_t reflatten_dirty_targets = 0;
  int64_t reflatten_publishes = 0;  // re-flattens that re-published
  double infer_seconds = 0;    // time inside RunGraphInferBatched
  /// Lifetime counters of the persistent store (hits/misses/spill/...).
  infer::EmbeddingCacheStats store;
  /// Whether Start re-attached a previous process's published snapshot.
  bool opened_warm = false;
};

class InferenceService {
 public:
  using Scores = std::vector<std::pair<flat::NodeId, std::vector<float>>>;

  /// Completion handle for one submitted request.
  class Pending {
   public:
    /// Blocks until the request is served or failed; returns the scores
    /// for the request's targets (deduplicated, sorted by node id).
    agl::Result<Scores> Wait();

   private:
    friend class InferenceService;
    void Complete(agl::Status status, Scores scores);

    common::Mutex mu_;
    common::CondVar cv_;
    bool done_ GUARDED_BY(mu_) = false;
    agl::Status status_ GUARDED_BY(mu_);
    Scores scores_ GUARDED_BY(mu_);
  };

  /// Validates the config, loads the features dataset (kFailedPrecondition
  /// when it is missing or does not fit the tables; see
  /// flat::MaintainedDataset::Open), opens (or re-opens warm) the
  /// persistent store under `dfs`, and starts the serving thread. The
  /// service takes its own copies of the state dict and tables; `dfs` must
  /// outlive it.
  static agl::Result<std::unique_ptr<InferenceService>> Start(
      const ServeConfig& config,
      const std::map<std::string, tensor::Tensor>& state,
      std::vector<flat::NodeRecord> nodes,
      std::vector<flat::EdgeRecord> edges, mr::LocalDfs* dfs);

  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Admits a scoring request. kInvalidArgument for an empty target list,
  /// kNotFound for a target outside the node table, kResourceExhausted when
  /// the queue is at max_pending, kFailedPrecondition after Shutdown.
  agl::Result<std::shared_ptr<Pending>> Submit(
      std::vector<flat::NodeId> targets);

  /// Submit + Wait.
  agl::Result<Scores> Score(std::vector<flat::NodeId> targets);

  /// Enqueues a mutation batch and blocks until it is applied (tables +
  /// store invalidation + incremental re-flatten). Requests submitted
  /// after this returns are scored on the post-mutation graph. The batch
  /// is atomic: on an apply error the tables roll back and nothing is
  /// invalidated.
  agl::Status ApplyMutations(std::vector<Mutation> batch);

  /// Durability point: flushes the store's spill batch with one fsync and
  /// atomically publishes its index, so a future process Start()s warm.
  /// Runs on the serving thread (after Shutdown: inline).
  agl::Status Persist();

  /// Drains the queue, stops the serving thread. Idempotent; the
  /// destructor calls it.
  agl::Status Shutdown();

  ServeStats stats() const;

  /// The store fingerprint serving lookups (StateFingerprint of the state
  /// dict passed to Start).
  uint64_t model_version() const { return model_version_; }

 private:
  struct Item {
    enum class Kind { kScore, kMutate, kPersist };
    Kind kind = Kind::kScore;
    std::vector<flat::NodeId> targets;  // kScore
    std::vector<Mutation> mutations;    // kMutate
    std::shared_ptr<Pending> pending;   // completion for any kind
  };

  InferenceService(const ServeConfig& config,
                   std::map<std::string, tensor::Tensor> state,
                   std::vector<flat::NodeRecord> nodes,
                   std::vector<flat::EdgeRecord> edges);

  void ServeLoop();
  void ProcessScoreBatch(std::vector<Item> batch);
  void ProcessControlItem(Item item);

  const ServeConfig config_;
  const std::map<std::string, tensor::Tensor> state_;
  const uint64_t model_version_;
  /// Immutable universe of node ids (the supported mutations never add or
  /// remove nodes), so admission-time validation needs no lock.
  std::unordered_set<flat::NodeId> node_ids_;

  // Owned by the serving thread after Start (and by whoever holds the
  // joined thread afterwards — Shutdown's join orders the accesses).
  flat::TableGraph graph_;
  /// GraphFingerprint of graph_, restamped on the store after every batch.
  RunningFingerprint fingerprint_;
  std::unique_ptr<infer::PersistentEmbeddingStore> store_;
  /// Set when config_.features_dataset is.
  std::optional<flat::MaintainedDataset> features_;

  mutable common::Mutex mu_;
  common::CondVar work_cv_;
  std::deque<Item> queue_ GUARDED_BY(mu_);
  std::size_t pending_scores_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  bool joined_ GUARDED_BY(mu_) = false;
  ServeStats stats_ GUARDED_BY(mu_);

  std::thread thread_;
};

}  // namespace agl::serve
