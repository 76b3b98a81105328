#include "driver/driver.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/mutex.h"
#include "common/subprocess.h"
#include "common/thread_annotations.h"
#include "io/codec.h"
#include "ps/client.h"
#include "ps/parameter_server.h"
#include "ps/remote.h"

namespace agl::driver {

namespace {

using common::ExitStatus;
using trainer::internal::WorkerResult;

/// Marker argv[1] of a spawned worker process.
constexpr char kWorkerArgv1[] = "__agl_worker";
constexpr char kRoleFlat[] = "flat";
constexpr char kRoleAnalytics[] = "analytics";
constexpr char kRoleTrain[] = "train";

// Every coordination dataset of a job lives under "<prefix>." so one
// CleanupPrefix sweep removes the whole job (including the exchange's
// buckets under "<prefix>.ex.").
std::string MetaName(const std::string& prefix) { return prefix + ".meta"; }
std::string SliceName(const std::string& prefix, int shard) {
  return prefix + ".in.s" + std::to_string(shard);
}
std::string ExchangePrefix(const std::string& prefix) { return prefix + ".ex"; }
std::string OutName(const std::string& prefix, int shard) {
  return prefix + ".out.s" + std::to_string(shard);
}
std::string ShardErrName(const std::string& prefix, int shard) {
  return prefix + ".err.s" + std::to_string(shard);
}
std::string FeatName(const std::string& prefix) { return prefix + ".feat"; }
std::string ResName(const std::string& prefix, int epoch, int worker) {
  return prefix + ".res.e" + std::to_string(epoch) + ".w" +
         std::to_string(worker);
}
std::string TrainErrName(const std::string& prefix, int epoch, int worker) {
  return prefix + ".err.e" + std::to_string(epoch) + ".w" +
         std::to_string(worker);
}

void MergeStats(DriverStats* into, const DriverStats& from) {
  into->spawns += from.spawns;
  into->restarts += from.restarts;
  into->clean_exits += from.clean_exits;
  into->signal_exits += from.signal_exits;
  into->error_exits += from.error_exits;
  into->exchange.Accumulate(from.exchange);
  into->ps_transport.connections += from.ps_transport.connections;
  into->ps_transport.requests += from.ps_transport.requests;
  into->ps_transport.bytes_received += from.ps_transport.bytes_received;
  into->ps_transport.bytes_sent += from.ps_transport.bytes_sent;
  into->ps_transport.failed_requests += from.ps_transport.failed_requests;
}

void CountExit(const ExitStatus& exit, DriverStats* stats) {
  if (exit.clean()) {
    stats->clean_exits++;
  } else if (exit.signaled) {
    stats->signal_exits++;
  } else {
    stats->error_exits++;
  }
}

/// The env of a worker's launch: `first_attempt_env` (the chaos hook)
/// applies only to attempt 0, so every retry runs clean.
std::vector<std::string> AttemptEnv(const DriverOptions& options,
                                    int attempt) {
  if (attempt == 0) return options.first_attempt_env;
  return {};
}

/// The one record of `dataset`; kCorruption for any other record count.
agl::Result<std::string> ReadSingleRecord(const mr::LocalDfs& dfs,
                                          const std::string& dataset) {
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> records,
                       dfs.ReadDataset(dataset));
  if (records.size() != 1) {
    return agl::Status::Corruption(dataset + " must hold exactly 1 record");
  }
  return std::move(records[0]);
}

/// Reads the status a failed worker left behind; nullopt when it died
/// before reporting (or the record is unreadable).
std::optional<agl::Status> ReadReportedError(const mr::LocalDfs& dfs,
                                             const std::string& dataset) {
  auto record = ReadSingleRecord(dfs, dataset);
  if (!record.ok()) return std::nullopt;
  io::BufferReader r(*record);
  agl::Status reported;
  if (!GetStatus(&r, &reported).ok() || reported.ok()) return std::nullopt;
  return reported;
}

// --- worker-process role bodies ---------------------------------------------

/// One shard of a GraphFlat or analytics job: reads the job meta and this
/// shard's table slice, runs the pipeline's shard unit over a DfsExchange
/// paced by `xopts`, and publishes the shard's output for the driver.
agl::Status RunShardWorker(const std::string& role, const std::string& root,
                           const std::string& prefix, int shard,
                           const flat::DfsExchange::Options& xopts) {
  AGL_ASSIGN_OR_RETURN(mr::LocalDfs dfs, mr::LocalDfs::Open(root));
  AGL_ASSIGN_OR_RETURN(const std::string meta,
                       ReadSingleRecord(dfs, MetaName(prefix)));
  AGL_ASSIGN_OR_RETURN(const std::string slice,
                       ReadSingleRecord(dfs, SliceName(prefix, shard)));
  std::vector<flat::NodeRecord> nodes;
  std::vector<flat::EdgeRecord> edges;
  AGL_RETURN_IF_ERROR(DecodeTableSlice(slice, &nodes, &edges));

  std::string output;
  if (role == kRoleFlat) {
    AGL_ASSIGN_OR_RETURN(const flat::FlatShardJob job,
                         DecodeFlatShardJob(meta));
    // The shard stores its slice of the output dataset itself.
    std::optional<mr::LocalDfs> out_dfs;
    if (!job.dataset.empty()) {
      AGL_ASSIGN_OR_RETURN(out_dfs, mr::LocalDfs::Open(job.output_root));
    }
    flat::DfsExchange exchange(&dfs, ExchangePrefix(prefix),
                               flat::ShardPlan(job.config.num_shards), xopts);
    AGL_ASSIGN_OR_RETURN(
        flat::FlatShardOutput out,
        flat::RunFlatShard(job, shard, nodes, edges, &exchange,
                           out_dfs ? &*out_dfs : nullptr));
    out.stats.exchange = exchange.stats();
    output = EncodeFlatShardOutput(out);
  } else {
    AGL_ASSIGN_OR_RETURN(const AnalyticsJob job, DecodeAnalyticsJob(meta));
    AGL_ASSIGN_OR_RETURN(std::unique_ptr<analytics::VertexProgram> program,
                         MakeProgram(job.program));
    flat::DfsExchange exchange(&dfs, ExchangePrefix(prefix),
                               flat::ShardPlan(job.shard.config.num_shards),
                               xopts);
    AGL_ASSIGN_OR_RETURN(analytics::AnalyticsShardOutput out,
                         analytics::RunAnalyticsShard(job.shard, *program,
                                                      shard, nodes, edges,
                                                      &exchange));
    out.stats.exchange = exchange.stats();
    output = EncodeAnalyticsShardOutput(out);
  }
  return dfs.WriteDataset(OutName(prefix, shard), {std::move(output)},
                          /*num_parts=*/1);
}

agl::Status RunTrainWorker(const std::string& root, const std::string& prefix,
                           int worker, int epoch, int port) {
  AGL_ASSIGN_OR_RETURN(mr::LocalDfs dfs, mr::LocalDfs::Open(root));
  AGL_ASSIGN_OR_RETURN(const std::string meta_record,
                       ReadSingleRecord(dfs, MetaName(prefix)));
  AGL_ASSIGN_OR_RETURN(const TrainJobMeta meta,
                       DecodeTrainJobMeta(meta_record));
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> feature_records,
                       dfs.ReadDataset(FeatName(prefix)));
  if (static_cast<int64_t>(feature_records.size()) != meta.num_examples) {
    return agl::Status::Corruption("feature dataset size mismatch");
  }
  std::vector<subgraph::GraphFeature> features;
  features.reserve(feature_records.size());
  for (const std::string& record : feature_records) {
    AGL_ASSIGN_OR_RETURN(subgraph::GraphFeature gf,
                         subgraph::GraphFeature::Parse(record));
    features.push_back(std::move(gf));
  }
  const auto partitions = trainer::internal::SplitRanges(
      features.size(), meta.config.num_workers);
  if (static_cast<int>(partitions.size()) != meta.active_workers ||
      worker < 0 || worker >= meta.active_workers) {
    return agl::Status::Internal("train worker partition mismatch");
  }

  ps::RemotePsClient client(port);
  AGL_ASSIGN_OR_RETURN(
      WorkerResult result,
      trainer::internal::RunWorkerEpoch(
          meta.config, std::span<const subgraph::GraphFeature>(features),
          partitions[worker].first, partitions[worker].second, worker, epoch,
          &client));
  // A failed epoch reports through the error dataset (exit 1), never
  // through a result the parent would mistake for progress.
  AGL_RETURN_IF_ERROR(result.status);
  return dfs.WriteDataset(ResName(prefix, epoch, worker),
                          {EncodeWorkerResult(result)}, /*num_parts=*/1);
}

/// Worker epilogue: an injected-crash failpoint becomes a REAL signal
/// death (so the chaos schedule exercises exactly the recovery path an
/// OOM kill would); any other error is reported through `err_dataset` for
/// the supervisor to read and exits 1.
int FinishWorker(const agl::Status& status, const std::string& root,
                 const std::string& err_dataset) {
  if (status.ok()) return 0;
#if !defined(_WIN32)
  if (fail::IsInjectedCrash(status)) ::raise(SIGKILL);
#endif
  auto dfs = mr::LocalDfs::Open(root);
  if (dfs.ok()) {
    io::BufferWriter w;
    PutStatus(&w, status);
    (void)dfs->WriteDataset(err_dataset, {w.Release()}, /*num_parts=*/1);
  }
  std::fprintf(stderr, "agl worker: %s\n", status.ToString().c_str());
  return 1;
}

// --- driver-side supervision ------------------------------------------------

/// The live shard processes of one job. The first shard that fails for
/// good stops the rest: its peers would otherwise poll the exchange for a
/// publish that never comes until `exchange_timeout_ms`, and then be
/// restarted into the same wait.
class ShardFleet {
 public:
  explicit ShardFleet(int num_shards) : pids_(num_shards, -1) {}

  /// Records shard `shard`'s live child, killing it at once when the
  /// fleet has already stopped.
  void Track(int shard, pid_t pid) {
    common::MutexLock lock(&mu_);
    if (!failure_.ok()) {
      (void)common::Kill(pid, SIGKILL);
      return;
    }
    pids_[shard] = pid;
  }

  /// Forgets shard `shard`'s child. Call after it exited and before it is
  /// reaped, so Stop never signals a recycled pid.
  void Untrack(int shard) {
    common::MutexLock lock(&mu_);
    pids_[shard] = -1;
  }

  /// Records `status` as the job's failure unless one came first, and
  /// kills every tracked child.
  void Stop(const agl::Status& status) {
    common::MutexLock lock(&mu_);
    if (!failure_.ok()) return;
    failure_ = status;
    for (pid_t pid : pids_) {
      if (pid > 0) (void)common::Kill(pid, SIGKILL);
    }
  }

  /// The failure that stopped the fleet; OK while it runs.
  agl::Status failure() const {
    common::MutexLock lock(&mu_);
    return failure_;
  }

 private:
  mutable common::Mutex mu_;
  std::vector<pid_t> pids_ GUARDED_BY(mu_);
  agl::Status failure_ GUARDED_BY(mu_);
};

/// Runs one shard worker to a clean exit, restarting signal deaths (and
/// retryable worker-reported errors) up to the classified-retry budget. A
/// shard that fails for good stops the fleet; a shard the stopped fleet
/// killed gives up without a restart. Runs concurrently for all shards,
/// hence the guarded stats.
agl::Status SuperviseShard(const DriverOptions& options,
                           const std::vector<std::string>& argv,
                           const std::string& err_dataset,
                           const std::string& what, int shard,
                           ShardFleet* fleet, DriverStats* stats,
                           common::Mutex* mu) {
  for (int attempt = 0;; ++attempt) {
    // A fresh attempt must not inherit a stale error report.
    (void)options.dfs->DropDataset(err_dataset);
    agl::Status status;
    auto pid = common::Spawn(argv, AttemptEnv(options, attempt));
    if (pid.ok()) {
      {
        common::MutexLock lock(mu);
        stats->spawns++;
      }
      fleet->Track(shard, *pid);
      AGL_RETURN_IF_ERROR(common::AwaitExit(*pid));
      fleet->Untrack(shard);
      AGL_ASSIGN_OR_RETURN(const ExitStatus exit, common::Wait(*pid));
      {
        common::MutexLock lock(mu);
        CountExit(exit, stats);
      }
      status = common::ClassifyExit(exit, what);
      if (status.ok()) return status;
      if (!exit.signaled) {
        if (auto reported = ReadReportedError(*options.dfs, err_dataset)) {
          status = *std::move(reported);
        }
      }
    } else {
      // Spawn failure (the driver.spawn failpoint, or fork/exec trouble).
      status = pid.status();
    }
    if (!fleet->failure().ok()) {
      return agl::Status::Aborted(what + " stopped after a peer failed");
    }
    if (!agl::IsRetryableError(status) || attempt >= options.max_restarts) {
      fleet->Stop(status);
      return status;
    }
    {
      common::MutexLock lock(mu);
      stats->restarts++;
    }
  }
}

agl::Status ValidateDriverOptions(const DriverOptions& options) {
  if (options.dfs == nullptr) {
    return agl::Status::InvalidArgument("driver: options.dfs is required");
  }
  if (options.job_prefix.empty()) {
    return agl::Status::InvalidArgument("driver: job_prefix must be non-empty");
  }
  if (options.max_restarts < 0) {
    return agl::Status::InvalidArgument("driver: max_restarts must be >= 0");
  }
  return agl::Status::OK();
}

/// The process substrate of both shard pipelines: publishes the job meta
/// and every shard's table slice, runs one supervised worker process per
/// shard, and returns each shard's decoded output. The first shard to fail
/// for good stops its peers, and its error is the job's.
template <typename Output>
agl::Result<std::vector<Output>> RunShardProcesses(
    const DriverOptions& options, const char* role, std::string job,
    const flat::ShardedTables& tables,
    agl::Result<Output> (*decode)(const std::string&), DriverStats* stats) {
  const std::string& prefix = options.job_prefix;
  AGL_RETURN_IF_ERROR(flat::DfsExchange::CleanupPrefix(options.dfs, prefix));
  const int num_shards = static_cast<int>(tables.nodes.size());
  AGL_RETURN_IF_ERROR(options.dfs->WriteDataset(
      MetaName(prefix), {std::move(job)}, /*num_parts=*/1));
  for (int s = 0; s < num_shards; ++s) {
    AGL_RETURN_IF_ERROR(options.dfs->WriteDataset(
        SliceName(prefix, s),
        {EncodeTableSlice(tables.nodes[s], tables.edges[s])},
        /*num_parts=*/1));
  }

  AGL_ASSIGN_OR_RETURN(const std::string self, common::SelfExecutable());
  ShardFleet fleet(num_shards);
  common::Mutex stats_mu;
  const agl::Status status = flat::ParallelOverShards(num_shards, [&](int s) {
    return SuperviseShard(
        options,
        {self, kWorkerArgv1, role, options.dfs->root(), prefix,
         std::to_string(s), std::to_string(options.exchange_poll_ms),
         std::to_string(options.exchange_timeout_ms)},
        ShardErrName(prefix, s), std::string(role) + " shard " +
        std::to_string(s), s, &fleet, stats, &stats_mu);
  });
  // The peers a stopped fleet killed report only their own cancellation.
  AGL_RETURN_IF_ERROR(fleet.failure());
  AGL_RETURN_IF_ERROR(status);

  std::vector<Output> outputs;
  for (int s = 0; s < num_shards; ++s) {
    AGL_ASSIGN_OR_RETURN(const std::string record,
                         ReadSingleRecord(*options.dfs, OutName(prefix, s)));
    AGL_ASSIGN_OR_RETURN(Output output, decode(record));
    outputs.push_back(std::move(output));
  }
  AGL_RETURN_IF_ERROR(flat::DfsExchange::CleanupPrefix(options.dfs, prefix));
  return outputs;
}

/// One spawn-run-reap cycle of a trainer epoch's worker fleet. OK means
/// every worker exited clean and `results` holds their decoded reports;
/// kUnavailable (a signal death somewhere) asks the caller to re-import
/// the epoch snapshot and retry; anything else is fatal.
agl::Status RunTrainEpochAttempt(
    const DriverOptions& options, const std::string& self, int epoch,
    int attempt, int active_workers, int64_t staleness_bound, int port,
    ps::PsClient* client, std::vector<WorkerResult>* results,
    DriverStats* stats) {
  const std::string& prefix = options.job_prefix;
  for (int w = 0; w < active_workers; ++w) {
    (void)options.dfs->DropDataset(ResName(prefix, epoch, w));
    (void)options.dfs->DropDataset(TrainErrName(prefix, epoch, w));
  }
  AGL_RETURN_IF_ERROR(client->BeginSspEpoch(active_workers, staleness_bound));

  std::vector<pid_t> pids;
  pids.reserve(active_workers);
  agl::Status spawn_status;
  const std::vector<std::string> env = AttemptEnv(options, attempt);
  for (int w = 0; w < active_workers; ++w) {
    auto pid = common::Spawn(
        {self, kWorkerArgv1, kRoleTrain, options.dfs->root(), prefix,
         std::to_string(w), std::to_string(epoch), std::to_string(port)},
        env);
    if (!pid.ok()) {
      spawn_status = pid.status();
      break;
    }
    stats->spawns++;
    pids.push_back(*pid);
  }
  if (!spawn_status.ok()) {
    // Starved of workers (the driver.spawn failpoint, or fork trouble):
    // tear the half-spawned fleet down and let the caller classify.
    (void)client->CancelSsp();
    for (pid_t pid : pids) {
      (void)common::Kill(pid, SIGKILL);
      (void)common::Wait(pid);
    }
    (void)client->EndSspEpoch();
    return spawn_status;
  }

  // One waiter thread per child: a worker parked at the SSP clock gate
  // only unparks after CancelSsp, so a sequential Wait over the fleet
  // could block forever behind a survivor of someone else's death.
  std::vector<ExitStatus> exits(active_workers);
  std::vector<agl::Status> wait_errors(active_workers);
  std::atomic<bool> cancelled{false};
  std::vector<std::thread> waiters;
  waiters.reserve(active_workers);
  for (int w = 0; w < active_workers; ++w) {
    waiters.emplace_back([&, w] {
      auto exit = common::Wait(pids[w]);
      if (!exit.ok()) {
        wait_errors[w] = exit.status();
        if (!cancelled.exchange(true)) (void)client->CancelSsp();
        return;
      }
      exits[w] = *exit;
      // First non-clean exit releases every parked survivor so the whole
      // fleet can be reaped and the epoch retried.
      if (!exit->clean() && !cancelled.exchange(true)) {
        (void)client->CancelSsp();
      }
    });
  }
  for (std::thread& t : waiters) t.join();
  (void)client->EndSspEpoch();

  bool signaled = false;
  for (int w = 0; w < active_workers; ++w) {
    AGL_RETURN_IF_ERROR(wait_errors[w]);
    CountExit(exits[w], stats);
    if (exits[w].signaled) signaled = true;
  }
  if (signaled) {
    return agl::Status::Unavailable(
        "trainer worker killed by signal (epoch " + std::to_string(epoch) +
        ", attempt " + std::to_string(attempt) + ")");
  }
  // Error exits without a signal: surface the root cause, preferring a
  // worker's own report over the kAborted collateral its cancelled peers
  // produce.
  agl::Status first_error;
  for (int w = 0; w < active_workers; ++w) {
    if (exits[w].clean()) continue;
    agl::Status reported = common::ClassifyExit(
        exits[w], "trainer worker " + std::to_string(w));
    if (auto from_dfs =
            ReadReportedError(*options.dfs, TrainErrName(prefix, epoch, w))) {
      reported = *std::move(from_dfs);
    }
    if (reported.code() != agl::StatusCode::kAborted) return reported;
    if (first_error.ok()) first_error = reported;
  }
  AGL_RETURN_IF_ERROR(first_error);

  for (int w = 0; w < active_workers; ++w) {
    AGL_ASSIGN_OR_RETURN(
        const std::string record,
        ReadSingleRecord(*options.dfs, ResName(prefix, epoch, w)));
    AGL_ASSIGN_OR_RETURN((*results)[w], DecodeWorkerResult(record));
  }
  return agl::Status::OK();
}

}  // namespace

agl::Result<flat::GraphFlatStats> RunGraphFlatProcesses(
    const DriverOptions& options, const flat::GraphFlatConfig& config,
    const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges, mr::LocalDfs* out_dfs,
    const std::string& dataset, DriverStats* stats) {
  AGL_RETURN_IF_ERROR(ValidateDriverOptions(options));
  AGL_RETURN_IF_ERROR(config.Validate());
  if (out_dfs == nullptr) {
    return agl::Status::InvalidArgument("driver: out_dfs is required");
  }
  DriverStats local;
  auto result = flat::RunGraphFlat(
      config, nodes, edges, out_dfs, dataset,
      [&](const flat::FlatShardJob& job, const flat::ShardedTables& tables) {
        return RunShardProcesses(options, kRoleFlat, EncodeFlatShardJob(job),
                                 tables, DecodeFlatShardOutput, &local);
      });
  if (result.ok()) local.exchange = result->exchange;
  if (stats != nullptr) MergeStats(stats, local);
  return result;
}

agl::Result<analytics::AnalyticsResult> RunAnalyticsProcesses(
    const DriverOptions& options, const analytics::AnalyticsConfig& config,
    const ProgramSpec& program, const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges, DriverStats* stats) {
  AGL_RETURN_IF_ERROR(ValidateDriverOptions(options));
  AGL_RETURN_IF_ERROR(config.Validate());
  AGL_ASSIGN_OR_RETURN(std::unique_ptr<analytics::VertexProgram> prog,
                       MakeProgram(program));
  DriverStats local;
  auto result = analytics::RunVertexProgram(
      config, *prog, nodes, edges,
      [&](const analytics::AnalyticsShardJob& job,
          const flat::ShardedTables& tables) {
        return RunShardProcesses(options, kRoleAnalytics,
                                 EncodeAnalyticsJob({job, program}), tables,
                                 DecodeAnalyticsShardOutput, &local);
      });
  if (result.ok()) local.exchange = result->stats.exchange;
  if (stats != nullptr) MergeStats(stats, local);
  return result;
}

agl::Result<trainer::TrainReport> TrainProcesses(
    const DriverOptions& options, const trainer::TrainerConfig& config,
    std::span<const subgraph::GraphFeature> train,
    std::span<const subgraph::GraphFeature> val, DriverStats* stats) {
  AGL_RETURN_IF_ERROR(ValidateDriverOptions(options));
  AGL_RETURN_IF_ERROR(config.Validate());
  if (train.empty()) {
    return agl::Status::InvalidArgument("empty training set");
  }
  if (config.sync_mode == trainer::SyncMode::kAsync) {
    return agl::Status::InvalidArgument(
        "TrainProcesses: kAsync has no replayable schedule across a process "
        "respawn; use kBsp or kSsp");
  }

  const std::string& prefix = options.job_prefix;
  AGL_RETURN_IF_ERROR(flat::DfsExchange::CleanupPrefix(options.dfs, prefix));

  const int active_workers = static_cast<int>(
      trainer::internal::SplitRanges(train.size(), config.num_workers)
          .size());
  // kBsp rides the wire as SSP at bound 0 — proven bit-identical by the
  // consistency suite, and it gives both modes one recovery protocol.
  const int64_t staleness_bound =
      config.sync_mode == trainer::SyncMode::kBsp ? 0 : config.staleness_bound;

  TrainJobMeta meta;
  meta.config = config;
  meta.config.sync_mode = trainer::SyncMode::kSsp;
  meta.config.staleness_bound = staleness_bound;
  meta.config.checkpoint_dfs = nullptr;
  meta.config.initial_state.clear();
  meta.config.verbose = false;
  meta.active_workers = active_workers;
  meta.num_examples = static_cast<int64_t>(train.size());
  AGL_RETURN_IF_ERROR(options.dfs->WriteDataset(
      MetaName(prefix), {EncodeTrainJobMeta(meta)}, /*num_parts=*/1));
  {
    // One part keeps record order == span order, so every worker sees the
    // exact index space the partitioner split.
    std::vector<std::string> features;
    features.reserve(train.size());
    for (const subgraph::GraphFeature& gf : train) {
      features.push_back(gf.Serialize());
    }
    AGL_RETURN_IF_ERROR(options.dfs->WriteDataset(FeatName(prefix), features,
                                                  /*num_parts=*/1));
  }

  AGL_ASSIGN_OR_RETURN(const std::string self, common::SelfExecutable());
  ps::ParameterServer server(trainer::internal::PsServerOptions(config));
  ps::PsServer wire(&server);
  AGL_RETURN_IF_ERROR(wire.Start());
  DriverStats local;
  // The in-process trainer's epoch loop, with each epoch's workers spawned
  // as processes against the wire PS in front of the loop's server.
  auto report = trainer::GraphTrainer(config).TrainLoop(
      &server,
      [&](int epoch, ps::PsClient* client, std::vector<WorkerResult>* results,
          const trainer::internal::MidCheckpointEnv*) -> agl::Status {
        // Epoch-grained recovery point: values + Adam moments as of the
        // epoch start. A worker-epoch is a pure function of (config, seed,
        // epoch, worker) given this state, so a respawned attempt
        // recomputes the identical bytes.
        AGL_ASSIGN_OR_RETURN(const auto snapshot, client->ExportState());
        for (int attempt = 0;; ++attempt) {
          agl::Status st = RunTrainEpochAttempt(
              options, self, epoch, attempt, active_workers, staleness_bound,
              wire.port(), client, results, &local);
          if (st.ok() || !agl::IsRetryableError(st) ||
              attempt >= options.max_restarts) {
            return st;
          }
          local.restarts++;
          AGL_RETURN_IF_ERROR(client->ImportState(snapshot));
        }
      },
      active_workers, val, /*num_examples=*/std::nullopt);
  wire.Stop();
  local.ps_transport = wire.transport_stats();
  if (stats != nullptr) MergeStats(stats, local);
  AGL_RETURN_IF_ERROR(report.status());
  AGL_RETURN_IF_ERROR(flat::DfsExchange::CleanupPrefix(options.dfs, prefix));
  return report;
}

std::optional<int> RunWorkerIfSpawned(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) != kWorkerArgv1) return std::nullopt;
  auto usage = [](const char* msg) {
    std::fprintf(stderr, "agl worker: %s\n", msg);
    return 2;
  };
  if (argc < 3) return usage("missing role");
  const std::string role = argv[2];
  if (role == kRoleFlat || role == kRoleAnalytics) {
    if (argc != 8) {
      return usage("shard worker wants: role root prefix shard poll timeout");
    }
    const std::string root = argv[3];
    const std::string prefix = argv[4];
    const int shard = std::atoi(argv[5]);
    flat::DfsExchange::Options xopts;
    xopts.poll_interval_ms = std::atoi(argv[6]);
    xopts.timeout_ms = std::atoi(argv[7]);
    return FinishWorker(RunShardWorker(role, root, prefix, shard, xopts),
                        root, ShardErrName(prefix, shard));
  }
  if (role == kRoleTrain) {
    if (argc != 8) {
      return usage("train worker wants: role root prefix worker epoch port");
    }
    const std::string root = argv[3];
    const std::string prefix = argv[4];
    const int worker = std::atoi(argv[5]);
    const int epoch = std::atoi(argv[6]);
    const int port = std::atoi(argv[7]);
    agl::Status status = RunTrainWorker(root, prefix, worker, epoch, port);
    return FinishWorker(status, root, TrainErrName(prefix, epoch, worker));
  }
  return usage("unknown role");
}

}  // namespace agl::driver
