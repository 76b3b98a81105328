#include "serve/inference_service.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "infer/segmentation.h"

namespace agl::serve {

agl::Status ServeConfig::Validate() const {
  AGL_RETURN_IF_ERROR(infer.Validate());
  if (store_name.empty()) {
    return agl::Status::InvalidArgument("ServeConfig: empty store_name");
  }
  if (store_budget_bytes == 0) {
    return agl::Status::InvalidArgument(
        "ServeConfig: store_budget_bytes 0 disables the store; a serving "
        "loop without a store has nothing to persist (use a negative "
        "budget for unbounded)");
  }
  if (max_pending < 1) {
    return agl::Status::InvalidArgument("ServeConfig: max_pending < 1");
  }
  if (max_batch_targets < 1) {
    return agl::Status::InvalidArgument(
        "ServeConfig: max_batch_targets < 1");
  }
  if (!features_dataset.empty()) {
    AGL_RETURN_IF_ERROR(flat.Validate());
    if (flat.sampler.strategy != sampling::Strategy::kNone) {
      return agl::Status::InvalidArgument(
          "ServeConfig: features_dataset maintenance requires sampling "
          "'none' (incremental re-flatten is not byte-reproducible under "
          "sampling)");
    }
  }
  return agl::Status::OK();
}

agl::Result<InferenceService::Scores> InferenceService::Pending::Wait() {
  common::MutexLock lock(&mu_);
  while (!done_) cv_.Wait(&mu_);
  if (!status_.ok()) return status_;
  return scores_;
}

void InferenceService::Pending::Complete(agl::Status status, Scores scores) {
  {
    common::MutexLock lock(&mu_);
    done_ = true;
    status_ = std::move(status);
    scores_ = std::move(scores);
  }
  cv_.SignalAll();
}

InferenceService::InferenceService(
    const ServeConfig& config, std::map<std::string, tensor::Tensor> state,
    std::vector<flat::NodeRecord> nodes, std::vector<flat::EdgeRecord> edges)
    : config_(config),
      state_(std::move(state)),
      model_version_(infer::StateFingerprint(state_)),
      graph_(std::move(nodes), std::move(edges)),
      fingerprint_(graph_.nodes(), graph_.edges()) {
  node_ids_.reserve(graph_.nodes().size());
  for (const flat::NodeRecord& n : graph_.nodes()) node_ids_.insert(n.id);
}

agl::Result<std::unique_ptr<InferenceService>> InferenceService::Start(
    const ServeConfig& config,
    const std::map<std::string, tensor::Tensor>& state,
    std::vector<flat::NodeRecord> nodes, std::vector<flat::EdgeRecord> edges,
    mr::LocalDfs* dfs) {
  AGL_RETURN_IF_ERROR(config.Validate());
  if (dfs == nullptr) {
    return agl::Status::InvalidArgument("InferenceService: null dfs");
  }
  if (nodes.empty()) {
    return agl::Status::InvalidArgument(
        "InferenceService: empty node table");
  }
  // The checks every pass runs, up front: a bad artifact or node table
  // fails the start, not the first request.
  AGL_RETURN_IF_ERROR(infer::SegmentModel(state, config.infer.model).status());
  AGL_RETURN_IF_ERROR(
      infer::CheckFeatureWidths(nodes, config.infer.model.in_dim));
  std::unique_ptr<InferenceService> svc(new InferenceService(
      config, state, std::move(nodes), std::move(edges)));
  if (!config.features_dataset.empty()) {
    AGL_ASSIGN_OR_RETURN(
        svc->features_,
        flat::MaintainedDataset::Open(config.flat, svc->graph_, dfs,
                                      config.features_dataset));
  }
  infer::PersistentEmbeddingStore::Options opts;
  opts.budget_bytes = config.store_budget_bytes;
  opts.model_version = svc->model_version_;
  // Embeddings are a function of (weights, graph): a published index from
  // an incarnation that persisted after mutations must not serve against
  // these tables, so the store comes up warm only on a double match.
  opts.graph_version = svc->fingerprint_.value();
  AGL_ASSIGN_OR_RETURN(
      svc->store_,
      infer::PersistentEmbeddingStore::Open(dfs, config.store_name, opts));
  svc->thread_ = std::thread([raw = svc.get()] { raw->ServeLoop(); });
  return svc;
}

InferenceService::~InferenceService() { Shutdown(); }

agl::Result<std::shared_ptr<InferenceService::Pending>>
InferenceService::Submit(std::vector<flat::NodeId> targets) {
  if (targets.empty()) {
    return agl::Status::InvalidArgument("Submit: empty target list");
  }
  for (flat::NodeId t : targets) {
    if (node_ids_.count(t) == 0) {
      return agl::Status::NotFound("Submit: target " + std::to_string(t) +
                                   " not in the node table");
    }
  }
  auto pending = std::make_shared<Pending>();
  {
    common::MutexLock lock(&mu_);
    if (stop_) {
      return agl::Status::FailedPrecondition("Submit: service stopped");
    }
    if (pending_scores_ >= config_.max_pending) {
      ++stats_.rejected;
      return agl::Status::ResourceExhausted(
          "Submit: admission queue full (" +
          std::to_string(config_.max_pending) + " pending)");
    }
    ++pending_scores_;
    ++stats_.admitted;
    Item item;
    item.kind = Item::Kind::kScore;
    item.targets = std::move(targets);
    item.pending = pending;
    queue_.push_back(std::move(item));
  }
  work_cv_.Signal();
  return pending;
}

agl::Result<InferenceService::Scores> InferenceService::Score(
    std::vector<flat::NodeId> targets) {
  AGL_ASSIGN_OR_RETURN(std::shared_ptr<Pending> pending,
                       Submit(std::move(targets)));
  return pending->Wait();
}

agl::Status InferenceService::ApplyMutations(std::vector<Mutation> batch) {
  if (batch.empty()) return agl::Status::OK();
  auto pending = std::make_shared<Pending>();
  {
    common::MutexLock lock(&mu_);
    if (stop_) {
      return agl::Status::FailedPrecondition(
          "ApplyMutations: service stopped");
    }
    Item item;
    item.kind = Item::Kind::kMutate;
    item.mutations = std::move(batch);
    item.pending = pending;
    queue_.push_back(std::move(item));
  }
  work_cv_.Signal();
  return pending->Wait().status();
}

agl::Status InferenceService::Persist() {
  auto pending = std::make_shared<Pending>();
  {
    common::MutexLock lock(&mu_);
    if (stop_) {
      // The serving thread is gone (Shutdown's join ordered its last
      // store access before ours): publish inline.
      return store_->Publish();
    }
    Item item;
    item.kind = Item::Kind::kPersist;
    item.pending = pending;
    queue_.push_back(std::move(item));
  }
  work_cv_.Signal();
  return pending->Wait().status();
}

agl::Status InferenceService::Shutdown() {
  {
    common::MutexLock lock(&mu_);
    if (joined_) return agl::Status::OK();
    stop_ = true;
    joined_ = true;
  }
  work_cv_.SignalAll();
  // A Start that failed after construction never started the thread.
  if (thread_.joinable()) thread_.join();
  return agl::Status::OK();
}

ServeStats InferenceService::stats() const {
  ServeStats out;
  {
    common::MutexLock lock(&mu_);
    out = stats_;
  }
  out.store = store_->stats();
  out.opened_warm = store_->opened_warm();
  return out;
}

void InferenceService::ServeLoop() {
  while (true) {
    std::vector<Item> batch;
    {
      common::MutexLock lock(&mu_);
      while (queue_.empty() && !stop_) work_cv_.Wait(&mu_);
      if (queue_.empty()) break;  // stop_ set and the queue drained
      if (queue_.front().kind != Item::Kind::kScore) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      } else {
        // Coalesce the run of adjacent score requests at the head — never
        // across a mutation (FIFO order is the consistency contract).
        std::size_t total = 0;
        while (!queue_.empty() &&
               queue_.front().kind == Item::Kind::kScore) {
          const std::size_t n = queue_.front().targets.size();
          if (!batch.empty() && total + n > config_.max_batch_targets) break;
          total += n;
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
          --pending_scores_;
        }
      }
    }
    if (batch[0].kind == Item::Kind::kScore) {
      ProcessScoreBatch(std::move(batch));
    } else {
      ProcessControlItem(std::move(batch[0]));
    }
  }
}

void InferenceService::ProcessScoreBatch(std::vector<Item> batch) {
  // Union the targets in arrival order; PartitionTargets slices the union
  // contiguously, so adjacent requests land in adjacent slices.
  std::vector<flat::NodeId> united;
  {
    std::unordered_set<flat::NodeId> seen;
    for (const Item& item : batch) {
      for (flat::NodeId t : item.targets) {
        if (seen.insert(t).second) united.push_back(t);
      }
    }
  }
  infer::InferConfig cfg = config_.infer;
  cfg.target_ids = united;
  cfg.cache_budget_bytes = 0;
  cfg.cache_spill_path.clear();
  Stopwatch watch;
  auto result =
      infer::RunGraphInferBatched(cfg, state_, graph_, store_.get());
  const double seconds = watch.Seconds();
  {
    common::MutexLock lock(&mu_);
    ++stats_.batches;
    stats_.batched_targets += static_cast<int64_t>(united.size());
    stats_.infer_seconds += seconds;
    if (result.ok()) {
      stats_.served += static_cast<int64_t>(batch.size());
    } else {
      stats_.failed += static_cast<int64_t>(batch.size());
    }
  }
  if (!result.ok()) {
    const agl::Status failure = agl::Status::Unavailable(
        "pipeline pass failed: " + result.status().message());
    for (Item& item : batch) item.pending->Complete(failure, {});
    return;
  }
  std::unordered_map<flat::NodeId, const std::vector<float>*> score_of;
  score_of.reserve(result->scores.size());
  for (const auto& [id, vec] : result->scores) score_of.emplace(id, &vec);
  for (Item& item : batch) {
    Scores scores;
    std::vector<flat::NodeId> ids = item.targets;
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    scores.reserve(ids.size());
    for (flat::NodeId id : ids) {
      auto it = score_of.find(id);
      if (it != score_of.end()) scores.emplace_back(id, *it->second);
    }
    item.pending->Complete(agl::Status::OK(), std::move(scores));
  }
}

void InferenceService::ProcessControlItem(Item item) {
  if (item.kind == Item::Kind::kPersist) {
    item.pending->Complete(store_->Publish(), {});
    return;
  }
  // Mutation batch, applied in place. An apply error replays the applied
  // mutations' inverses in reverse.
  std::vector<Mutation> undo;
  for (std::size_t i = 0; i < item.mutations.size(); ++i) {
    auto inverse = ApplyMutation(item.mutations[i], &graph_);
    if (!inverse.ok()) {
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        UndoMutation(*it, &graph_);
      }
      item.pending->Complete(
          agl::Status(inverse.status().code(),
                      "mutation " + std::to_string(i) + " (" +
                          item.mutations[i].ToString() +
                          "): " + inverse.status().message()),
          {});
      return;
    }
    undo.push_back(std::move(inverse).value());
  }
  // Seeds and closures read the post-mutation graph only; see mutation.h
  // for why the removed edges cannot change them.
  const DirtySeeds seeds = ComputeDirtySeeds(config_.infer.model.type,
                                             item.mutations, graph_);
  const std::vector<std::pair<flat::NodeId, int32_t>> floors =
      PropagateInvalidations(seeds.cache_seeds, graph_,
                             config_.infer.model.num_layers);
  for (const auto& [node, min_round] : floors) {
    store_->Invalidate(node, min_round);
  }
  // The graph moved: restamp the store so the next Publish() pins the
  // index to the tables it actually describes.
  for (std::size_t i = 0; i < undo.size(); ++i) {
    fingerprint_.Apply(item.mutations[i], undo[i], graph_);
  }
  store_->set_graph_version(fingerprint_.value());
  agl::Status status = agl::Status::OK();
  flat::ReflattenStats rstats;
  if (features_) {
    status = features_->Update(graph_, seeds.dataset_seeds, &rstats);
  }
  {
    common::MutexLock lock(&mu_);
    ++stats_.mutation_batches;
    stats_.mutations_applied += static_cast<int64_t>(item.mutations.size());
    stats_.invalidated_nodes += static_cast<int64_t>(floors.size());
    if (features_) {
      ++stats_.reflatten_runs;
      stats_.reflatten_dirty_targets += rstats.dirty_targets;
      stats_.reflatten_publishes += rstats.published ? 1 : 0;
    }
  }
  item.pending->Complete(std::move(status), {});
}

}  // namespace agl::serve
