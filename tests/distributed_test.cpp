// Multi-process runtime suite: the driver's process-promoted jobs must be
// byte-identical to their in-process twins, and its classified-retry
// supervision must recover bit-exactly from worker SIGKILLs.
//
//   * GraphFlat / analytics across S in {1, 2, 4, 7} shard processes
//     produce the same DFS dataset bytes / SerializeValues as the
//     threaded runs;
//   * TrainProcesses reproduces GraphTrainer::Train bit-for-bit for kBsp
//     and kSsp at bound 0 (the wire PS runs both as SSP);
//   * a worker killed by SIGKILL mid-epoch (an injected crash failpoint
//     armed only in first attempts becomes a real `raise(SIGKILL)`) is
//     relaunched and the job's final output is unchanged;
//   * a worker-reported non-retryable error fails the job without a
//     relaunch, and a shard that fails that way stops its peers at once
//     instead of leaving them polling the exchange;
//   * LocalDfs honors its concurrency contract: peer processes publishing
//     different datasets under concurrent Opens (each of which sweeps
//     stale scratch) never corrupt one another.
//
// This binary spawns copies of ITSELF as the driver's workers, so main()
// is custom: RunWorkerIfSpawned must run before gtest sees argv.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analytics/programs.h"
#include "analytics/vertex_program.h"
#include "common/failpoint.h"
#include "common/subprocess.h"
#include "data/dataset.h"
#include "driver/driver.h"
#include "flat/graphflat.h"
#include "mr/local_dfs.h"
#include "nn/state_io.h"
#include "testing/graph_gen.h"
#include "trainer/trainer.h"

namespace agl::driver {

/// Re-exec'd writer mode (see main below): peer processes publishing
/// DIFFERENT datasets while the parent keeps re-Opening the root. Open's
/// stale-scratch sweep must skip the live peers' in-flight publishes, so
/// every dataset lands complete and checksummed.
constexpr const char* kDfsWriterArgv1 = "__dfs_writer";

/// Jobs whose prefix starts with this fail in exactly one shard: main()
/// arms a non-retryable map error in the worker process of shard 1.
constexpr const char* kFatalShardPrefix = "fatal_shard";

/// Jobs whose prefix starts with this fail in shard 1 after it stored its
/// output slice: main() fails that process's 6th DFS publish, which for a
/// 3-shard 2-hop GraphFlat job follows 2 rounds x 2 peer exchange buckets
/// and the slice, and is the shard's output record.
constexpr const char* kFatalStorePrefix = "fatal_store";

std::vector<std::string> WriterPayload(int id) {
  std::vector<std::string> records;
  records.reserve(300);
  for (int r = 0; r < 300; ++r) {
    records.push_back("writer-" + std::to_string(id) + "-record-" +
                      std::to_string(r) + "-" + std::string(64, 'a' + id % 26));
  }
  return records;
}

int RunDfsWriter(const std::string& root, int id) {
  auto dfs = mr::LocalDfs::Open(root);
  if (!dfs.ok()) return 1;
  const std::vector<std::string> records = WriterPayload(id);
  for (int round = 0; round < 8; ++round) {
    if (!dfs->WriteDataset("peer" + std::to_string(id), records, 4).ok()) {
      return 1;
    }
  }
  return 0;
}

namespace {

using testing::GeneratedGraph;
using testing::GraphGenOptions;
using testing::MakeGraph;

bool Heavy() { return std::getenv("AGL_DISTRIBUTED_HEAVY") != nullptr; }

/// The quick matrix exercises 1 (degenerate), a divisor-free count, and a
/// power of two; the heavy sweep adds the ISSUE's full set.
std::vector<int> ShardCounts() {
  return Heavy() ? std::vector<int>{1, 2, 4, 7} : std::vector<int>{1, 4, 7};
}

class DistributedTest : public ::testing::Test {
 public:
  DriverOptions Options(const std::string& prefix) {
    DriverOptions options;
    options.dfs = coord_.get();
    options.job_prefix = prefix;
    return options;
  }

 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("agl_distributed_" + std::to_string(::getpid())))
                .string();
    auto dfs = mr::LocalDfs::Open(root_ + "/coord");
    ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
    coord_ = std::make_unique<mr::LocalDfs>(std::move(*dfs));
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  agl::Result<mr::LocalDfs> OutDfs() {
    return mr::LocalDfs::Open(root_ + "/out");
  }

  std::string root_;
  std::unique_ptr<mr::LocalDfs> coord_;
};

GraphGenOptions TestGraph(uint64_t seed) {
  GraphGenOptions opts;
  opts.topology = GraphGenOptions::Topology::kPowerLaw;
  opts.num_nodes = 90;
  opts.attach_edges = 3;
  opts.node_feature_dim = 5;
  opts.seed = seed;
  return opts;
}

/// A finished flat job left no per-shard staging slice of `dataset` and no
/// scratch directory on `dfs`.
void ExpectNoStagingLeft(const mr::LocalDfs& dfs, const std::string& dataset,
                         int num_shards) {
  for (int s = 0; s < num_shards; ++s) {
    EXPECT_FALSE(dfs.DatasetExists(mr::ShardDatasetName(dataset, s)))
        << mr::ShardDatasetName(dataset, s);
  }
  const agl::Status valid = dfs.ValidateAllDatasets();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

// --- GraphFlat --------------------------------------------------------------

TEST_F(DistributedTest, FlatProcessesMatchInProcessAcrossShardCounts) {
  GeneratedGraph g = MakeGraph(TestGraph(11));
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  for (int shards : ShardCounts()) {
    flat::GraphFlatConfig config;
    config.hops = 2;
    config.num_shards = shards;
    config.job.num_workers = 3;

    auto in_proc =
        flat::RunGraphFlat(config, g.nodes, g.edges, &*out, "flat_thread");
    ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
    DriverStats stats;
    auto proc = RunGraphFlatProcesses(Options("flat"), config, g.nodes,
                                      g.edges, &*out, "flat_proc", &stats);
    ASSERT_TRUE(proc.ok()) << "S=" << shards << ": "
                           << proc.status().ToString();

    EXPECT_EQ(in_proc->num_features, proc->num_features) << "S=" << shards;
    EXPECT_EQ(in_proc->total_nodes, proc->total_nodes) << "S=" << shards;
    EXPECT_EQ(in_proc->total_edges, proc->total_edges) << "S=" << shards;
    EXPECT_EQ(in_proc->max_nodes, proc->max_nodes) << "S=" << shards;
    auto a = out->ReadDataset("flat_thread");
    auto b = out->ReadDataset("flat_proc");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(*a == *b) << "dataset bytes diverged at S=" << shards;
    EXPECT_EQ(stats.spawns, shards);
    EXPECT_EQ(stats.clean_exits, shards);
    EXPECT_EQ(stats.restarts, 0);
    ExpectNoStagingLeft(*out, "flat_proc", shards);
  }
}

/// Shards run with a first-attempt crash failpoint recover to the clean
/// run's bytes, and the output DFS is left holding only whole datasets.
void ExpectCrashRecoversBitExact(DistributedTest* test, mr::LocalDfs* out,
                                 const flat::GraphFlatConfig& config,
                                 const GeneratedGraph& g,
                                 const std::string& failpoints,
                                 const std::string& name) {
  SCOPED_TRACE(name + ": " + failpoints);
  auto clean = RunGraphFlatProcesses(test->Options(name + "_clean"), config,
                                     g.nodes, g.edges, out, name + "_clean");
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  DriverOptions chaos = test->Options(name + "_chaos");
  chaos.first_attempt_env = {"AGL_FAILPOINTS=" + failpoints};
  DriverStats stats;
  auto result = RunGraphFlatProcesses(chaos, config, g.nodes, g.edges, out,
                                      name + "_chaos", &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(stats.signal_exits, config.num_shards);
  EXPECT_EQ(stats.restarts, config.num_shards);
  EXPECT_EQ(result->num_features, clean->num_features);
  auto a = out->ReadDataset(name + "_clean");
  auto b = out->ReadDataset(name + "_chaos");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
  ExpectNoStagingLeft(*out, name + "_chaos", config.num_shards);
}

// A shard dies after its round-0 publish, when its own bucket lived only
// in its memory: the restart recomputes the bucket, re-publishes the peer
// buckets byte-identically, and collects from the peers' retained ones.
TEST_F(DistributedTest, FlatShardCrashAfterRoundZeroPublishRecoversBitExact) {
  GeneratedGraph g = MakeGraph(TestGraph(16));
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  flat::GraphFlatConfig config;
  config.hops = 2;
  config.num_shards = 3;
  config.job.num_workers = 2;
  config.job.num_reduce_tasks = 2;
  // Reduce hits 1-2 are round 0; hit 3 is round 1's first task.
  ExpectCrashRecoversBitExact(this, &*out, config, g, "mr.reduce=crash@3x1",
                              "reduce_crash");
}

// A shard dies inside the publish of its output slice. The killed attempt
// leaves a scratch directory on the output DFS; the restart's publish of
// the same slice sweeps it.
TEST_F(DistributedTest, FlatShardCrashAtSlicePublishRecoversBitExact) {
  GeneratedGraph g = MakeGraph(TestGraph(17));
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  flat::GraphFlatConfig config;
  config.hops = 2;
  config.job.num_workers = 2;
  // One shard publishes no exchange bucket, so its first DFS publish is
  // the slice; three shards publish 2 rounds x 2 peer buckets before it.
  config.num_shards = 1;
  ExpectCrashRecoversBitExact(this, &*out, config, g, "dfs.rename=crash@1x1",
                              "slice_crash1");
  config.num_shards = 3;
  ExpectCrashRecoversBitExact(this, &*out, config, g, "dfs.rename=crash@5x1",
                              "slice_crash3");
}

// A shard that fails for good after it stored its slice: the job returns
// its error, and no staging slice (nor the output dataset) is left behind.
TEST_F(DistributedTest, FailedFlatJobLeavesNoStagingSlices) {
  GeneratedGraph g = MakeGraph(TestGraph(18));
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  flat::GraphFlatConfig config;
  config.hops = 2;
  config.num_shards = 3;
  config.job.num_workers = 2;
  DriverStats stats;
  auto result = RunGraphFlatProcesses(
      Options(std::string(kFatalStorePrefix) + "_flat"), config, g.nodes,
      g.edges, &*out, "fatal_store", &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_FALSE(out->DatasetExists("fatal_store"));
  ExpectNoStagingLeft(*out, "fatal_store", config.num_shards);
}

// --- DfsExchange contract ---------------------------------------------------

/// Forty records whose keys spread over every home shard of a small plan.
std::vector<mr::KeyValue> ExchangeRecords(int round, int src) {
  std::vector<mr::KeyValue> records;
  for (int k = 0; k < 40; ++k) {
    std::string value = std::to_string(round);
    value += '.';
    value += std::to_string(src);
    value += '.';
    value += std::to_string(k);
    records.push_back({std::to_string(k * 7 + src), std::move(value)});
  }
  return records;
}

// The DFS exchange against the in-memory one on the same publishes: the
// same records in the same source-major order, with a shard's own bucket
// never written to the DFS and never counted as DFS traffic.
TEST_F(DistributedTest, DfsExchangeKeepsOwnBucketsOffTheDfs) {
  constexpr int kShards = 3;
  constexpr int kRounds = 2;
  const flat::ShardPlan plan(kShards);
  flat::InMemoryExchange memory(plan);
  flat::DfsExchange::Options options;
  options.poll_interval_ms = 1;
  options.timeout_ms = 2000;  // a regression to waiting fails, not hangs
  flat::DfsExchange exchange(coord_.get(), "xc", plan, options);

  // Collecting a round before this shard published it is a clean error.
  auto early = exchange.Collect(0, 1);
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition)
      << early.status().ToString();

  int64_t crossing_bytes = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int src = 0; src < kShards; ++src) {
      ASSERT_TRUE(memory.Publish(round, src, ExchangeRecords(round, src)).ok());
      ASSERT_TRUE(
          exchange.Publish(round, src, ExchangeRecords(round, src)).ok());
      std::vector<std::vector<mr::KeyValue>> by_dst(kShards);
      for (mr::KeyValue& kv : ExchangeRecords(round, src)) {
        by_dst[plan.HomeShard(kv.key)].push_back(std::move(kv));
      }
      for (int dst = 0; dst < kShards; ++dst) {
        ASSERT_FALSE(by_dst[dst].empty()) << "every bucket must be tested";
        if (dst != src) {
          crossing_bytes += static_cast<int64_t>(
              flat::SerializeExchangeRecords(by_dst[dst]).size());
        }
      }
    }
    for (int dst = 0; dst < kShards; ++dst) {
      auto want = memory.Collect(round, dst);
      auto got = exchange.Collect(round, dst);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), want->size());
      for (std::size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*got)[i].key, (*want)[i].key) << "record " << i;
        EXPECT_EQ((*got)[i].value, (*want)[i].value) << "record " << i;
      }
    }
  }

  for (int round = 0; round < kRounds; ++round) {
    for (int src = 0; src < kShards; ++src) {
      for (int dst = 0; dst < kShards; ++dst) {
        const std::string bucket = "xc.x.r" + std::to_string(round) + ".f" +
                                   std::to_string(src) + ".t" +
                                   std::to_string(dst);
        EXPECT_EQ(coord_->DatasetExists(bucket), src != dst) << bucket;
      }
    }
  }
  // Each own bucket is collected once.
  EXPECT_EQ(exchange.Collect(0, 0).status().code(),
            StatusCode::kFailedPrecondition);
  const flat::ExchangeStats stats = exchange.stats();
  EXPECT_EQ(stats.bytes_published, crossing_bytes);
  EXPECT_EQ(stats.bytes_collected, crossing_bytes);
  EXPECT_EQ(stats.records_published, memory.stats().records_published);
  EXPECT_EQ(stats.records_collected, memory.stats().records_collected);
  ASSERT_TRUE(flat::DfsExchange::CleanupPrefix(coord_.get(), "xc").ok());
}

TEST_F(DistributedTest, FlatShardSigkillRecoversBitExact) {
  GeneratedGraph g = MakeGraph(TestGraph(12));
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  flat::GraphFlatConfig config;
  config.hops = 2;
  config.num_shards = 3;
  config.job.num_workers = 2;

  auto clean = RunGraphFlatProcesses(Options("flat_clean"), config, g.nodes,
                                     g.edges, &*out, "flat_clean");
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Every shard's first attempt dies by SIGKILL on its third map task; the
  // relaunches recompute and republish idempotently while the surviving
  // peers keep polling the exchange.
  DriverOptions chaos = Options("flat_chaos");
  chaos.first_attempt_env = {"AGL_FAILPOINTS=mr.map=crash@3x1"};
  DriverStats stats;
  auto result = RunGraphFlatProcesses(chaos, config, g.nodes, g.edges, &*out,
                                      "flat_chaos", &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.restarts, 0);
  EXPECT_GT(stats.signal_exits, 0);

  auto a = out->ReadDataset("flat_clean");
  auto b = out->ReadDataset("flat_chaos");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
}

// --- Analytics --------------------------------------------------------------

TEST_F(DistributedTest, AnalyticsProcessesMatchInProcessAcrossShardCounts) {
  GeneratedGraph g = MakeGraph(TestGraph(13));
  analytics::PageRankProgram oracle(0.85, 1e-10);
  ProgramSpec spec;
  spec.name = "pagerank";

  for (int shards : ShardCounts()) {
    analytics::AnalyticsConfig config;
    config.num_shards = shards;
    config.job.num_workers = 2;

    auto in_proc =
        analytics::RunVertexProgram(config, oracle, g.nodes, g.edges);
    ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
    DriverStats stats;
    auto proc = RunAnalyticsProcesses(Options("pr"), config, spec, g.nodes,
                                      g.edges, &stats);
    ASSERT_TRUE(proc.ok()) << "S=" << shards << ": "
                           << proc.status().ToString();

    EXPECT_TRUE(in_proc->SerializeValues() == proc->SerializeValues())
        << "values diverged at S=" << shards;
    EXPECT_EQ(in_proc->stats.supersteps, proc->stats.supersteps);
    EXPECT_EQ(in_proc->stats.converged, proc->stats.converged);
    EXPECT_EQ(stats.clean_exits, shards);
  }
}

TEST_F(DistributedTest, AnalyticsShardSigkillRecoversBitExact) {
  GeneratedGraph g = MakeGraph(TestGraph(14));
  analytics::AnalyticsConfig config;
  config.num_shards = 3;
  config.job.num_workers = 2;
  ProgramSpec spec;
  spec.name = "cc";

  auto clean =
      RunAnalyticsProcesses(Options("cc_clean"), config, spec, g.nodes,
                            g.edges);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  DriverOptions chaos = Options("cc_chaos");
  chaos.first_attempt_env = {"AGL_FAILPOINTS=mr.map=crash@2x1"};
  DriverStats stats;
  auto result = RunAnalyticsProcesses(chaos, config, spec, g.nodes, g.edges,
                                      &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.restarts, 0);
  EXPECT_TRUE(clean->SerializeValues() == result->SerializeValues());
}

// --- One shard failing for good ---------------------------------------------

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST_F(DistributedTest, NonRetryableShardErrorStopsItsPeers) {
  GeneratedGraph g = MakeGraph(TestGraph(15));
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  // Shard 1 fails its first map task with kInternal. Its peers would wait
  // a whole exchange timeout for its publishes, then be restarted into the
  // same wait; the job must instead return shard 1's error at once.
  constexpr int kTimeoutMs = 10000;
  constexpr double kBudgetSeconds = kTimeoutMs / 2000.0;

  DriverOptions flat_options =
      Options(std::string(kFatalShardPrefix) + "_flat");
  flat_options.exchange_timeout_ms = kTimeoutMs;
  flat::GraphFlatConfig fc;
  fc.hops = 2;
  fc.num_shards = 3;
  fc.job.num_workers = 2;
  DriverStats flat_stats;
  auto start = std::chrono::steady_clock::now();
  auto flat = RunGraphFlatProcesses(flat_options, fc, g.nodes, g.edges,
                                    &*out, "fatal_flat", &flat_stats);
  const double flat_seconds = SecondsSince(start);
  ASSERT_FALSE(flat.ok());
  EXPECT_EQ(flat.status().code(), StatusCode::kInternal)
      << flat.status().ToString();
  EXPECT_EQ(flat_stats.restarts, 0);
  EXPECT_EQ(flat_stats.spawns, fc.num_shards);
  EXPECT_LT(flat_seconds, kBudgetSeconds);

  DriverOptions pr_options = Options(std::string(kFatalShardPrefix) + "_pr");
  pr_options.exchange_timeout_ms = kTimeoutMs;
  analytics::AnalyticsConfig ac;
  ac.num_shards = 3;
  ac.job.num_workers = 2;
  ProgramSpec spec;
  spec.name = "pagerank";
  DriverStats pr_stats;
  start = std::chrono::steady_clock::now();
  auto pr = RunAnalyticsProcesses(pr_options, ac, spec, g.nodes, g.edges,
                                  &pr_stats);
  const double pr_seconds = SecondsSince(start);
  ASSERT_FALSE(pr.ok());
  EXPECT_EQ(pr.status().code(), StatusCode::kInternal)
      << pr.status().ToString();
  EXPECT_EQ(pr_stats.restarts, 0);
  EXPECT_EQ(pr_stats.spawns, ac.num_shards);
  EXPECT_LT(pr_seconds, kBudgetSeconds);
}

// --- Trainer ----------------------------------------------------------------

struct TrainCase {
  std::vector<subgraph::GraphFeature> train;
  std::vector<subgraph::GraphFeature> val;
  trainer::TrainerConfig config;
};

TrainCase MakeTrainCase(int workers, trainer::SyncMode mode, int staleness) {
  data::UugLikeOptions opts;
  opts.num_nodes = 160;
  opts.feature_dim = 6;
  opts.train_size = 72;
  opts.val_size = 30;
  opts.test_size = 30;
  data::Dataset ds = data::MakeUugLike(opts);
  flat::GraphFlatConfig fc;
  fc.hops = 1;
  auto features = flat::RunGraphFlatInMemory(fc, ds.nodes, ds.edges);
  AGL_CHECK(features.ok());
  data::FeatureSplits splits =
      data::SplitFeatures(std::move(features).value(), ds);

  TrainCase c;
  c.train = std::move(splits.train);
  c.val = std::move(splits.val);
  c.config.model.type = gnn::ModelType::kGcn;
  c.config.model.num_layers = 1;
  c.config.model.in_dim = opts.feature_dim;
  c.config.model.hidden_dim = 8;
  c.config.model.out_dim = 2;
  c.config.model.dropout = 0.f;
  c.config.task = trainer::TaskKind::kBinaryAuc;
  c.config.num_workers = workers;
  c.config.batch_size = 16;
  c.config.epochs = 3;
  c.config.eval_every = 1;
  c.config.sync_mode = mode;
  c.config.staleness_bound = staleness;
  return c;
}

/// `config` with its per-epoch checkpoints written to `dfs` under `prefix`.
trainer::TrainerConfig Checkpointed(trainer::TrainerConfig config,
                                    mr::LocalDfs* dfs,
                                    const std::string& prefix) {
  config.checkpoint_dfs = dfs;
  config.checkpoint_prefix = prefix;
  return config;
}

bool SameMetric(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Two runs agree bit for bit: per-epoch losses and validation metrics,
/// the early-stopping state, the final parameters, and every
/// "<prefix>-epoch-N" checkpoint the runs wrote to `dfs`.
void ExpectSameTraining(const trainer::TrainReport& a,
                        const trainer::TrainReport& b,
                        const mr::LocalDfs& dfs, const std::string& prefix_a,
                        const std::string& prefix_b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].mean_train_loss, b.epochs[i].mean_train_loss)
        << "epoch " << i;
    EXPECT_TRUE(SameMetric(a.epochs[i].val_metric, b.epochs[i].val_metric))
        << "epoch " << i << ": " << a.epochs[i].val_metric << " vs "
        << b.epochs[i].val_metric;
    const std::string suffix = "-epoch-" + std::to_string(i);
    auto ckpt_a = dfs.ReadDataset(prefix_a + suffix);
    auto ckpt_b = dfs.ReadDataset(prefix_b + suffix);
    ASSERT_TRUE(ckpt_a.ok()) << ckpt_a.status().ToString();
    ASSERT_TRUE(ckpt_b.ok()) << ckpt_b.status().ToString();
    EXPECT_TRUE(*ckpt_a == *ckpt_b) << "checkpoint of epoch " << i;
  }
  EXPECT_TRUE(SameMetric(a.best_val_metric, b.best_val_metric))
      << a.best_val_metric << " vs " << b.best_val_metric;
  EXPECT_TRUE(nn::SerializeStateDict(a.final_state) ==
              nn::SerializeStateDict(b.final_state))
      << "final state dicts diverged";
}

TEST_F(DistributedTest, TrainProcessesMatchInProcessBsp) {
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  for (int workers : {1, 3}) {
    TrainCase c = MakeTrainCase(workers, trainer::SyncMode::kBsp, 0);
    const std::string thread_ckpt = "bsp_thread" + std::to_string(workers);
    const std::string proc_ckpt = "bsp_proc" + std::to_string(workers);
    auto in_proc =
        trainer::GraphTrainer(Checkpointed(c.config, &*out, thread_ckpt))
            .Train(c.train, c.val);
    ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
    DriverStats stats;
    auto proc = TrainProcesses(Options("bsp"),
                               Checkpointed(c.config, &*out, proc_ckpt),
                               c.train, c.val, &stats);
    ASSERT_TRUE(proc.ok()) << "W=" << workers << ": "
                           << proc.status().ToString();
    ExpectSameTraining(*in_proc, *proc, *out, thread_ckpt, proc_ckpt);
    EXPECT_EQ(stats.restarts, 0);
    EXPECT_GT(stats.ps_transport.requests, 0);  // the wire PS carried it
  }
}

TEST_F(DistributedTest, TrainProcessesMatchInProcessSspBoundZero) {
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  TrainCase c = MakeTrainCase(3, trainer::SyncMode::kSsp, 0);
  auto in_proc =
      trainer::GraphTrainer(Checkpointed(c.config, &*out, "ssp0_thread"))
          .Train(c.train, c.val);
  ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
  auto proc = TrainProcesses(Options("ssp0"),
                             Checkpointed(c.config, &*out, "ssp0_proc"),
                             c.train, c.val);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  ExpectSameTraining(*in_proc, *proc, *out, "ssp0_thread", "ssp0_proc");
}

TEST_F(DistributedTest, TrainProcessesStopEarlyAtTheSameEpoch) {
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  TrainCase c = MakeTrainCase(2, trainer::SyncMode::kBsp, 0);
  c.config.epochs = 12;
  c.config.patience = 1;
  auto in_proc =
      trainer::GraphTrainer(Checkpointed(c.config, &*out, "stop_thread"))
          .Train(c.train, c.val);
  ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
  // The case must exercise patience, not run out of epochs.
  ASSERT_LT(in_proc->epochs.size(), static_cast<std::size_t>(c.config.epochs));
  auto proc = TrainProcesses(Options("stop"),
                             Checkpointed(c.config, &*out, "stop_proc"),
                             c.train, c.val);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  ExpectSameTraining(*in_proc, *proc, *out, "stop_thread", "stop_proc");
}

TEST_F(DistributedTest, TrainerSigkillMidEpochRecoversBitExact) {
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  TrainCase c = MakeTrainCase(3, trainer::SyncMode::kBsp, 0);
  auto clean = TrainProcesses(Options("t_clean"),
                              Checkpointed(c.config, &*out, "t_clean"),
                              c.train, c.val);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Each epoch's first-attempt workers die by SIGKILL on their second
  // step; the driver cancels the SSP epoch, restores the epoch-start PS
  // snapshot (values + Adam moments), and replays the epoch clean.
  DriverOptions chaos = Options("t_chaos");
  chaos.first_attempt_env = {"AGL_FAILPOINTS=trainer.step=crash@2x1"};
  DriverStats stats;
  auto result = TrainProcesses(chaos, Checkpointed(c.config, &*out, "t_chaos"),
                               c.train, c.val, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.restarts, 0);
  EXPECT_GT(stats.signal_exits, 0);
  ExpectSameTraining(*clean, *result, *out, "t_clean", "t_chaos");
}

TEST_F(DistributedTest, NonRetryableWorkerErrorFailsWithoutRelaunch) {
  TrainCase c = MakeTrainCase(2, trainer::SyncMode::kBsp, 0);
  DriverOptions options = Options("t_fatal");
  options.first_attempt_env = {
      "AGL_FAILPOINTS=trainer.step=error(Internal,1)x1"};
  DriverStats stats;
  auto result = TrainProcesses(options, c.config, c.train, c.val, &stats);
  ASSERT_FALSE(result.ok());
  // The worker's own reported status wins over its cancelled peers'
  // kAborted collateral, and kInternal is not in the retryable set.
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_EQ(stats.restarts, 0);
}

TEST_F(DistributedTest, TrainProcessesRejectsUnsupportedModes) {
  TrainCase c = MakeTrainCase(2, trainer::SyncMode::kAsync, 0);
  auto async = TrainProcesses(Options("t_async"), c.config, c.train, c.val);
  EXPECT_EQ(async.status().code(), StatusCode::kInvalidArgument);

  TrainCase mid = MakeTrainCase(2, trainer::SyncMode::kBsp, 0);
  mid.config.checkpoint_dfs = coord_.get();
  mid.config.checkpoint_every_batches = 4;
  auto resumable =
      TrainProcesses(Options("t_mid"), mid.config, mid.train, mid.val);
  EXPECT_EQ(resumable.status().code(), StatusCode::kInvalidArgument);
}

// --- LocalDfs concurrency contract ------------------------------------------

TEST_F(DistributedTest, LocalDfsConcurrentOpensNeverSweepLivePeers) {
  const std::string root = root_ + "/dfs_contract";
  auto self = common::SelfExecutable();
  ASSERT_TRUE(self.ok());

  constexpr int kWriters = 4;
  std::vector<pid_t> pids;
  for (int id = 0; id < kWriters; ++id) {
    auto pid = common::Spawn(
        {*self, kDfsWriterArgv1, root, std::to_string(id)});
    ASSERT_TRUE(pid.ok()) << pid.status().ToString();
    pids.push_back(*pid);
  }
  // Each Open sweeps scratch directories; racing it against the live
  // writers is the point of the test.
  for (int i = 0; i < 50; ++i) {
    auto dfs = mr::LocalDfs::Open(root);
    ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
  }
  for (pid_t pid : pids) {
    auto exit = common::Wait(pid);
    ASSERT_TRUE(exit.ok());
    EXPECT_TRUE(exit->clean()) << "writer exited "
                               << (exit->signaled ? "signal " : "code ")
                               << exit->value;
  }
  auto dfs = mr::LocalDfs::Open(root);
  ASSERT_TRUE(dfs.ok());
  for (int id = 0; id < kWriters; ++id) {
    auto records = dfs->ReadDataset("peer" + std::to_string(id));
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    // Round-robin parts permute read-back order; compare as sorted sets.
    std::vector<std::string> got = std::move(*records);
    std::vector<std::string> want = WriterPayload(id);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_TRUE(got == want) << "peer " << id;
  }
}

// --- heavy sweep ------------------------------------------------------------

/// Nightly-style widening behind AGL_DISTRIBUTED_HEAVY (the CTest entry
/// sets it): more seeds x the full shard set for both shard pipelines.
TEST_F(DistributedTest, DistributedSweepTest) {
  if (!Heavy()) GTEST_SKIP() << "set AGL_DISTRIBUTED_HEAVY=1 to run";
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  for (uint64_t seed : {21u, 22u, 23u}) {
    GeneratedGraph g = MakeGraph(TestGraph(seed));
    for (int shards : {2, 4, 7}) {
      flat::GraphFlatConfig fc;
      fc.hops = 2;
      fc.num_shards = shards;
      fc.job.num_workers = 2;
      auto in_proc =
          flat::RunGraphFlat(fc, g.nodes, g.edges, &*out, "sweep_thread");
      ASSERT_TRUE(in_proc.ok());
      auto proc = RunGraphFlatProcesses(Options("sweep"), fc, g.nodes,
                                        g.edges, &*out, "sweep_proc");
      ASSERT_TRUE(proc.ok()) << proc.status().ToString();
      auto a = out->ReadDataset("sweep_thread");
      auto b = out->ReadDataset("sweep_proc");
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_TRUE(*a == *b) << "seed " << seed << " S=" << shards;

      analytics::AnalyticsConfig ac;
      ac.num_shards = shards;
      ac.job.num_workers = 2;
      analytics::PageRankProgram oracle(0.85, 1e-10);
      ProgramSpec spec;
      spec.name = "pagerank";
      auto ref = analytics::RunVertexProgram(ac, oracle, g.nodes, g.edges);
      ASSERT_TRUE(ref.ok());
      auto pr = RunAnalyticsProcesses(Options("sweep_pr"), ac, spec, g.nodes,
                                      g.edges);
      ASSERT_TRUE(pr.ok()) << pr.status().ToString();
      EXPECT_TRUE(ref->SerializeValues() == pr->SerializeValues())
          << "seed " << seed << " S=" << shards;
    }
  }
}

}  // namespace
}  // namespace agl::driver

/// Custom main: this binary is its own worker pool. The driver hook must
/// see argv before gtest (a spawned worker never reaches the test runner),
/// and the DFS-contract writers re-enter here too.
int main(int argc, char** argv) {
  // Shard 1 of a "fatal_shard*" job: argv is the driver's shard-worker
  // layout (marker, role, root, prefix, shard, poll, timeout).
  if (argc == 8 && std::string(argv[1]) == "__agl_worker" &&
      std::string(argv[4]).rfind(agl::driver::kFatalShardPrefix, 0) == 0 &&
      std::string(argv[5]) == "1" &&
      !agl::fail::ApplySpec("mr.map=error(Internal,1)").ok()) {
    return 2;
  }
  // Shard 1 of a "fatal_store*" job: fail its output-record publish.
  if (argc == 8 && std::string(argv[1]) == "__agl_worker" &&
      std::string(argv[4]).rfind(agl::driver::kFatalStorePrefix, 0) == 0 &&
      std::string(argv[5]) == "1" &&
      !agl::fail::ApplySpec("dfs.rename=error(Internal,1)@6x1").ok()) {
    return 2;
  }
  if (auto code = agl::driver::RunWorkerIfSpawned(argc, argv)) return *code;
  if (argc == 4 &&
      std::string(argv[1]) == agl::driver::kDfsWriterArgv1) {
    return agl::driver::RunDfsWriter(argv[2], std::atoi(argv[3]));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
