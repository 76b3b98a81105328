#include "flat/exchange.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "io/codec.h"

namespace agl::flat {

void ExchangeStats::Accumulate(const ExchangeStats& other) {
  publishes += other.publishes;
  collects += other.collects;
  allgathers += other.allgathers;
  records_published += other.records_published;
  records_collected += other.records_collected;
  bytes_published += other.bytes_published;
  bytes_collected += other.bytes_collected;
  wait_seconds += other.wait_seconds;
}

std::string SerializeExchangeRecords(
    const std::vector<mr::KeyValue>& records) {
  io::BufferWriter w;
  w.PutVarint64(records.size());
  for (const mr::KeyValue& kv : records) {
    w.PutString(kv.key);
    w.PutString(kv.value);
  }
  return w.Release();
}

agl::Result<std::vector<mr::KeyValue>> ParseExchangeRecords(
    const std::string& bytes) {
  io::BufferReader r(bytes);
  uint64_t n = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&n));
  std::vector<mr::KeyValue> records;
  records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    mr::KeyValue kv;
    AGL_RETURN_IF_ERROR(r.GetString(&kv.key));
    AGL_RETURN_IF_ERROR(r.GetString(&kv.value));
    records.push_back(std::move(kv));
  }
  if (!r.AtEnd()) {
    return agl::Status::Corruption("exchange bucket has trailing bytes");
  }
  return records;
}

// --- InMemoryExchange ------------------------------------------------------

InMemoryExchange::InMemoryExchange(ShardPlan plan) : plan_(plan) {}

agl::Status InMemoryExchange::Publish(int round, int src_shard,
                                      std::vector<mr::KeyValue> records) {
  const int s = plan_.num_shards();
  common::MutexLock lock(&mu_);
  AGL_RETURN_IF_ERROR(aborted_);
  Round& r = rounds_[round];
  if (r.buckets.empty()) {
    r.buckets.assign(s, std::vector<std::vector<mr::KeyValue>>(s));
    r.published.assign(s, false);
  }
  if (r.published[src_shard]) {
    return agl::Status::FailedPrecondition(
        "shard " + std::to_string(src_shard) + " already published round " +
        std::to_string(round));
  }
  stats_.publishes++;
  stats_.records_published += static_cast<int64_t>(records.size());
  for (mr::KeyValue& kv : records) {
    const int dst = plan_.HomeShard(kv.key);
    r.buckets[src_shard][dst].push_back(std::move(kv));
  }
  r.published[src_shard] = true;
  r.num_published++;
  cv_.SignalAll();
  return agl::Status::OK();
}

agl::Result<std::vector<mr::KeyValue>> InMemoryExchange::Collect(
    int round, int dst_shard) {
  Stopwatch watch;
  common::MutexLock lock(&mu_);
  Round& r = rounds_[round];
  const int s = plan_.num_shards();
  if (r.buckets.empty()) {
    r.buckets.assign(s, std::vector<std::vector<mr::KeyValue>>(s));
    r.published.assign(s, false);
  }
  while (r.num_published < s && aborted_.ok()) cv_.Wait(&mu_);
  AGL_RETURN_IF_ERROR(aborted_);
  std::vector<mr::KeyValue> out;
  std::size_t total = 0;
  for (int src = 0; src < s; ++src) total += r.buckets[src][dst_shard].size();
  out.reserve(total);
  for (int src = 0; src < s; ++src) {
    for (mr::KeyValue& kv : r.buckets[src][dst_shard]) {
      out.push_back(std::move(kv));
    }
    r.buckets[src][dst_shard].clear();
  }
  stats_.collects++;
  stats_.records_collected += static_cast<int64_t>(out.size());
  stats_.wait_seconds += watch.Seconds();
  return out;
}

agl::Result<std::vector<std::string>> InMemoryExchange::AllGather(
    const std::string& tag, int shard, std::string payload) {
  Stopwatch watch;
  const int s = plan_.num_shards();
  common::MutexLock lock(&mu_);
  Gather& g = gathers_[tag];
  if (g.payloads.empty()) {
    g.payloads.assign(s, "");
    g.present.assign(s, false);
  }
  if (!g.present[shard]) {
    g.payloads[shard] = std::move(payload);
    g.present[shard] = true;
    g.num_present++;
    cv_.SignalAll();
  }
  while (g.num_present < s && aborted_.ok()) cv_.Wait(&mu_);
  AGL_RETURN_IF_ERROR(aborted_);
  stats_.allgathers++;
  stats_.wait_seconds += watch.Seconds();
  return g.payloads;
}

void InMemoryExchange::Abort(agl::Status status) {
  common::MutexLock lock(&mu_);
  if (!aborted_.ok() || status.ok()) return;
  aborted_ = std::move(status);
  cv_.SignalAll();
}

ExchangeStats InMemoryExchange::stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

// --- DfsExchange -----------------------------------------------------------

namespace {

std::string BucketName(const std::string& prefix, int round, int src,
                       int dst) {
  return prefix + ".x.r" + std::to_string(round) + ".f" +
         std::to_string(src) + ".t" + std::to_string(dst);
}

std::string GatherName(const std::string& prefix, const std::string& tag,
                       int shard) {
  return prefix + ".ag." + tag + ".s" + std::to_string(shard);
}

}  // namespace

DfsExchange::DfsExchange(mr::LocalDfs* dfs, std::string prefix,
                         ShardPlan plan)
    : DfsExchange(dfs, std::move(prefix), plan, Options()) {}

DfsExchange::DfsExchange(mr::LocalDfs* dfs, std::string prefix,
                         ShardPlan plan, Options options)
    : dfs_(dfs), prefix_(std::move(prefix)), plan_(plan), options_(options) {}

agl::Status DfsExchange::Publish(int round, int src_shard,
                                 std::vector<mr::KeyValue> records) {
  {
    common::MutexLock lock(&mu_);
    AGL_RETURN_IF_ERROR(aborted_);
  }
  const int s = plan_.num_shards();
  const int64_t num_records = static_cast<int64_t>(records.size());
  std::vector<std::vector<mr::KeyValue>> by_dst(s);
  for (mr::KeyValue& kv : records) {
    by_dst[plan_.HomeShard(kv.key)].push_back(std::move(kv));
  }
  int64_t bytes = 0;
  // Every peer bucket is written — an empty one included — so a collector
  // can distinguish "src published nothing for me" from "src has not
  // published yet". The own bucket stays in memory.
  for (int dst = 0; dst < s; ++dst) {
    if (dst == src_shard) continue;
    const std::string payload = SerializeExchangeRecords(by_dst[dst]);
    bytes += static_cast<int64_t>(payload.size());
    AGL_RETURN_IF_ERROR(dfs_->WriteDataset(
        BucketName(prefix_, round, src_shard, dst), {payload}, 1));
  }
  common::MutexLock lock(&mu_);
  own_[{round, src_shard}] = std::move(by_dst[src_shard]);
  stats_.publishes++;
  stats_.records_published += num_records;
  stats_.bytes_published += bytes;
  return agl::Status::OK();
}

agl::Result<std::string> DfsExchange::AwaitAndRead(
    const std::string& dataset) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.timeout_ms);
  while (!dfs_->DatasetExists(dataset)) {
    {
      common::MutexLock lock(&mu_);
      AGL_RETURN_IF_ERROR(aborted_);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return agl::Status::Unavailable("exchange dataset '" + dataset +
                                      "' never appeared (dead shard?)");
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.poll_interval_ms));
  }
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> recs,
                       dfs_->ReadDataset(dataset));
  if (recs.size() != 1) {
    return agl::Status::Corruption("exchange dataset '" + dataset +
                                   "' must hold exactly 1 record");
  }
  return std::move(recs[0]);
}

agl::Result<std::vector<mr::KeyValue>> DfsExchange::Collect(int round,
                                                            int dst_shard) {
  Stopwatch watch;
  const int s = plan_.num_shards();
  std::vector<std::vector<mr::KeyValue>> by_src(s);
  {
    common::MutexLock lock(&mu_);
    AGL_RETURN_IF_ERROR(aborted_);
    auto own = own_.find({round, dst_shard});
    if (own == own_.end()) {
      return agl::Status::FailedPrecondition(
          "DfsExchange: shard " + std::to_string(dst_shard) +
          " collects round " + std::to_string(round) +
          " without having published it");
    }
    by_src[dst_shard] = std::move(own->second);
    own_.erase(own);
  }
  int64_t bytes = 0;
  for (int src = 0; src < s; ++src) {
    if (src == dst_shard) continue;
    AGL_ASSIGN_OR_RETURN(
        std::string payload,
        AwaitAndRead(BucketName(prefix_, round, src, dst_shard)));
    bytes += static_cast<int64_t>(payload.size());
    AGL_ASSIGN_OR_RETURN(by_src[src], ParseExchangeRecords(payload));
  }
  std::vector<mr::KeyValue> out;
  std::size_t total = 0;
  for (const auto& recs : by_src) total += recs.size();
  out.reserve(total);
  for (auto& recs : by_src) {
    for (mr::KeyValue& kv : recs) out.push_back(std::move(kv));
  }
  common::MutexLock lock(&mu_);
  stats_.collects++;
  stats_.records_collected += static_cast<int64_t>(out.size());
  stats_.bytes_collected += bytes;
  stats_.wait_seconds += watch.Seconds();
  return out;
}

agl::Result<std::vector<std::string>> DfsExchange::AllGather(
    const std::string& tag, int shard, std::string payload) {
  Stopwatch watch;
  AGL_RETURN_IF_ERROR(dfs_->WriteDataset(GatherName(prefix_, tag, shard),
                                         {std::move(payload)}, 1));
  const int s = plan_.num_shards();
  std::vector<std::string> payloads(s);
  for (int i = 0; i < s; ++i) {
    AGL_ASSIGN_OR_RETURN(payloads[i],
                         AwaitAndRead(GatherName(prefix_, tag, i)));
  }
  common::MutexLock lock(&mu_);
  stats_.allgathers++;
  stats_.wait_seconds += watch.Seconds();
  return payloads;
}

void DfsExchange::Abort(agl::Status status) {
  common::MutexLock lock(&mu_);
  if (!aborted_.ok() || status.ok()) return;
  aborted_ = std::move(status);
}

ExchangeStats DfsExchange::stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

agl::Result<ExchangeStats> RunShardsInProcess(
    int num_shards, const std::function<agl::Status(int, Exchange*)>& body) {
  InMemoryExchange exchange{ShardPlan(num_shards)};
  AGL_RETURN_IF_ERROR(ParallelOverShards(num_shards, [&](int s) {
    agl::Status status = body(s, &exchange);
    if (!status.ok()) exchange.Abort(status);
    return status;
  }));
  return exchange.stats();
}

agl::Status DfsExchange::CleanupPrefix(mr::LocalDfs* dfs,
                                       const std::string& prefix) {
  for (const std::string& name : dfs->ListDatasets()) {
    if (name.rfind(prefix + ".", 0) == 0) {
      AGL_RETURN_IF_ERROR(dfs->DropDataset(name));
    }
  }
  return agl::Status::OK();
}

}  // namespace agl::flat
