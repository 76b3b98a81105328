// The boundary-state exchange behind sharded GraphFlat and the analytics
// round loop, abstracted so the same per-shard code runs in-process
// (threads moving vectors through memory) or multi-process (records
// spilled through the crash-consistent LocalDfs and collected by other
// OS processes).
//
// Contract: for every round, each of the S shards calls
// Publish(round, src, records) exactly once-logically (a restarted shard
// may re-publish — publishes are idempotent because the per-shard record
// stream is deterministic and DFS publishes are atomic), and
// Collect(round, dst), called by shard dst after its own Publish of
// `round`, blocks until all S publishes for `round` landed, returning
// exactly the records whose shuffle key is homed on `dst`,
// ordered source-shard-major with the original emit order preserved
// within each source. That ordering plus the reduce engine's canonical
// value ordering is what keeps output byte-identical across
// {in-memory, DFS} × shard counts.
//
// AllGather is the small-value barrier the analytics convergence check
// runs on: every shard deposits one payload under a tag; all shards
// receive the S payloads indexed by shard.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "flat/shard.h"
#include "mr/local_dfs.h"
#include "mr/mapreduce.h"

namespace agl::flat {

/// Traffic counters of one exchange (aggregated across shards).
struct ExchangeStats {
  int64_t publishes = 0;
  int64_t collects = 0;
  int64_t allgathers = 0;
  int64_t records_published = 0;
  int64_t records_collected = 0;
  /// Serialized bytes moved through the DFS: 0 for the in-memory path,
  /// and a DfsExchange shard's own bucket never counts.
  int64_t bytes_published = 0;
  int64_t bytes_collected = 0;
  /// Time shards spent blocked waiting for peers' publishes.
  double wait_seconds = 0;

  void Accumulate(const ExchangeStats& other);
};

class Exchange {
 public:
  virtual ~Exchange() = default;

  /// Routes every record to its key's home shard for pickup at `round`.
  virtual agl::Status Publish(int round, int src_shard,
                              std::vector<mr::KeyValue> records) = 0;

  /// Blocks until all shards published `round`; returns `dst_shard`'s
  /// records (source-major order).
  virtual agl::Result<std::vector<mr::KeyValue>> Collect(int round,
                                                         int dst_shard) = 0;

  /// Deposits `payload` for (`tag`, `shard`) and blocks until every shard
  /// deposited under `tag`; returns the payloads indexed by shard. Tags
  /// must be unique per barrier within a job.
  virtual agl::Result<std::vector<std::string>> AllGather(
      const std::string& tag, int shard, std::string payload) = 0;

  /// Poisons the exchange: every blocked Collect/AllGather wakes with
  /// `status`, and every later call fails with it too. Pulled when a peer
  /// shard dies without restart — without it the surviving shards would
  /// park forever at the next barrier. Idempotent; the first status wins.
  /// `status` must be an error.
  virtual void Abort(agl::Status status) = 0;

  virtual ExchangeStats stats() const = 0;
};

/// Thread-backed exchange: mutex + condvar over per-(round, src, dst)
/// buckets. This is the single-process fast path.
class InMemoryExchange : public Exchange {
 public:
  explicit InMemoryExchange(ShardPlan plan);

  agl::Status Publish(int round, int src_shard,
                      std::vector<mr::KeyValue> records) override;
  agl::Result<std::vector<mr::KeyValue>> Collect(int round,
                                                 int dst_shard) override;
  agl::Result<std::vector<std::string>> AllGather(const std::string& tag,
                                                  int shard,
                                                  std::string payload) override;
  void Abort(agl::Status status) override;
  ExchangeStats stats() const override;

 private:
  struct Round {
    // [src][dst] record buckets; published[src] marks src's deposit.
    std::vector<std::vector<std::vector<mr::KeyValue>>> buckets;
    std::vector<bool> published;
    int num_published = 0;
  };
  struct Gather {
    std::vector<std::string> payloads;
    std::vector<bool> present;
    int num_present = 0;
  };

  ShardPlan plan_;
  mutable common::Mutex mu_;
  common::CondVar cv_;
  std::unordered_map<int, Round> rounds_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Gather> gathers_ GUARDED_BY(mu_);
  agl::Status aborted_ GUARDED_BY(mu_);
  ExchangeStats stats_ GUARDED_BY(mu_);
};

/// DFS-backed exchange: each (round, src, dst) bucket with src != dst is
/// one atomically published dataset "<prefix>.x.r<round>.f<src>.t<dst>";
/// collectors poll for the S - 1 peer datasets of their round. A shard's
/// own bucket (src == dst) is never written: Publish keeps it in memory
/// and Collect takes it from there, so each Collect must follow this
/// instance's Publish of the same round (kFailedPrecondition otherwise,
/// never a wait). Because every dataset is written with the
/// crash-consistent scratch+rename publish, a shard process that dies
/// mid-publish leaves no readable partial. Its restarted attempt
/// recomputes its own bucket and writes only the peer buckets (and
/// AllGather deposits) not yet published: the published ones hold the
/// same bytes, and are never replaced under a peer reading them.
/// Datasets are retained for the life of the job (restart safety) and
/// removed with CleanupPrefix afterwards. `bytes_published` and
/// `bytes_collected` count only the buckets that cross the DFS.
class DfsExchange : public Exchange {
 public:
  struct Options {
    int poll_interval_ms = 2;
    /// Collect/AllGather give up after this long without the missing
    /// peer datasets appearing (a dead, unrestarted shard).
    int timeout_ms = 120000;
  };

  DfsExchange(mr::LocalDfs* dfs, std::string prefix, ShardPlan plan);
  DfsExchange(mr::LocalDfs* dfs, std::string prefix, ShardPlan plan,
              Options options);

  agl::Status Publish(int round, int src_shard,
                      std::vector<mr::KeyValue> records) override;
  agl::Result<std::vector<mr::KeyValue>> Collect(int round,
                                                 int dst_shard) override;
  agl::Result<std::vector<std::string>> AllGather(const std::string& tag,
                                                  int shard,
                                                  std::string payload) override;
  void Abort(agl::Status status) override;
  ExchangeStats stats() const override;

  /// Drops every dataset under `prefix` (driver cleanup after a job).
  static agl::Status CleanupPrefix(mr::LocalDfs* dfs,
                                   const std::string& prefix);

 private:
  agl::Result<std::string> AwaitAndRead(const std::string& dataset);

  mr::LocalDfs* dfs_;
  std::string prefix_;
  ShardPlan plan_;
  Options options_;
  mutable common::Mutex mu_;
  agl::Status aborted_ GUARDED_BY(mu_);
  ExchangeStats stats_ GUARDED_BY(mu_);
  /// Own buckets published and not yet collected, by (round, shard).
  std::map<std::pair<int, int>, std::vector<mr::KeyValue>> own_
      GUARDED_BY(mu_);
};

/// The in-process shard fan-out of both sharded pipelines: runs
/// `body(shard, exchange)` for shards 0..S-1 on S threads over one
/// InMemoryExchange and returns its traffic. The first shard to fail
/// aborts the exchange, so its peers fail at their next barrier instead of
/// waiting for a publish that never comes.
agl::Result<ExchangeStats> RunShardsInProcess(
    int num_shards, const std::function<agl::Status(int, Exchange*)>& body);

/// (De)serialization of one exchange bucket — exposed for tests.
std::string SerializeExchangeRecords(const std::vector<mr::KeyValue>& records);
agl::Result<std::vector<mr::KeyValue>> ParseExchangeRecords(
    const std::string& bytes);

}  // namespace agl::flat
