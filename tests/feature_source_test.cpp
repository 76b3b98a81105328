// Tests for the streaming DFS feature source: shard coverage/disjointness
// and corruption surfacing.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "agl/agl.h"
#include "flat/graphflat.h"
#include "trainer/feature_source.h"
#include "trainer/trainer.h"

namespace agl::trainer {
namespace {

// Flips one byte near the end of `path` without changing its size: the
// dataset manifest (which records part sizes) stays satisfied, so the
// corruption is only caught by the per-record checksum at read time —
// the layer these tests exercise.
void FlipTrailingByte(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -3, SEEK_END), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -3, SEEK_END), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);
}

class FeatureSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("agl_fsrc_" + std::to_string(::getpid())))
                .string();
    auto dfs = mr::LocalDfs::Open(root_);
    AGL_CHECK(dfs.ok());
    dfs_ = std::make_unique<mr::LocalDfs>(std::move(dfs).value());

    // A chain graph flattened to 10 features over 4 parts.
    std::vector<flat::NodeRecord> nodes;
    std::vector<flat::EdgeRecord> edges;
    for (int i = 0; i < 10; ++i) {
      nodes.push_back({static_cast<flat::NodeId>(i),
                       {static_cast<float>(i)},
                       i % 2,
                       {}});
      if (i > 0) {
        edges.push_back({static_cast<flat::NodeId>(i - 1),
                         static_cast<flat::NodeId>(i), 1.f,
                         {}});
      }
    }
    flat::GraphFlatConfig config;
    config.hops = 1;
    config.output_parts = 4;
    auto stats =
        flat::RunGraphFlat(config, nodes, edges, dfs_.get(), "features");
    AGL_CHECK(stats.ok());
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string root_;
  std::unique_ptr<mr::LocalDfs> dfs_;
};

TEST_F(FeatureSourceTest, ReadAllSeesEveryFeature) {
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(src->num_parts(), 4);
  auto all = src->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 10u);
  // Parts in order, records in file order: the DFS's own reader is the
  // independent oracle.
  auto records = dfs_->ReadDataset("features");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), all->size());
  for (std::size_t i = 0; i < all->size(); ++i) {
    auto gf = subgraph::GraphFeature::Parse((*records)[i]);
    ASSERT_TRUE(gf.ok());
    EXPECT_EQ((*all)[i].target_id, gf->target_id) << i;
  }
}

TEST_F(FeatureSourceTest, ShardsPartitionTheDataset) {
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  std::multiset<uint64_t> seen;
  for (int w = 0; w < 3; ++w) {
    auto shard = src->ReadShard(w, 3);
    ASSERT_TRUE(shard.ok());
    for (const auto& gf : *shard) seen.insert(gf.target_id);
  }
  EXPECT_EQ(seen.size(), 10u);  // every feature exactly once
  std::set<uint64_t> uniq(seen.begin(), seen.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST_F(FeatureSourceTest, MoreWorkersThanPartsGetEmptyShards) {
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  auto shard = src->ReadShard(7, 8);  // only 4 parts exist
  ASSERT_TRUE(shard.ok());
  EXPECT_TRUE(shard->empty());
}

TEST_F(FeatureSourceTest, BadShardSpecRejected) {
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  EXPECT_FALSE(src->ReadShard(-1, 2).ok());
  EXPECT_FALSE(src->ReadShard(2, 2).ok());
  EXPECT_FALSE(src->ReadShard(0, 0).ok());
}

TEST_F(FeatureSourceTest, MissingDatasetIsNotFound) {
  EXPECT_EQ(DfsFeatureSource::Open(*dfs_, "nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(FeatureSourceTest, LoneShardSliceIsNotFound) {
  // Only shard 0's "<dataset>.shard-NN" slice exists, as after a writer
  // killed before its unify: reading it as the dataset would drop every
  // other shard's targets, so the dataset is not found.
  auto records = dfs_->ReadDataset("features");
  ASSERT_TRUE(records.ok());
  ASSERT_TRUE(
      dfs_->WriteDataset(mr::ShardDatasetName("fam", 0), *records, 2).ok());

  EXPECT_EQ(DfsFeatureSource::Open(*dfs_, "fam").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(agl::LoadGraphFeatures(*dfs_, "fam").status().code(),
            StatusCode::kNotFound);
}

TEST_F(FeatureSourceTest, CorruptPartSurfacesAsError) {
  auto parts = dfs_->ListParts("features");
  ASSERT_TRUE(parts.ok());
  FlipTrailingByte((*parts)[0]);
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  EXPECT_FALSE(src->ReadAll().ok());
}

// --- StreamingShardReader --------------------------------------------------

TEST_F(FeatureSourceTest, StreamingMatchesMaterializedShardOrder) {
  // The stream must yield exactly ReadShard's records in
  // exactly ReadShard's order (parts round-robin, records in file order) —
  // the trainer relies on this for pipeline/inline equivalence.
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  for (int workers : {1, 2, 3}) {
    for (int w = 0; w < workers; ++w) {
      auto materialized = src->ReadShard(w, workers);
      ASSERT_TRUE(materialized.ok());
      StreamingShardReader::Options opts;
      opts.batch_size = 3;
      auto reader = StreamingShardReader::Open(*src, w, workers, opts);
      ASSERT_TRUE(reader.ok());
      std::vector<uint64_t> streamed;
      while (true) {
        auto batch = reader->Next();
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        if (batch->empty()) break;
        EXPECT_LE(batch->size(), 3u);
        for (const auto& gf : *batch) streamed.push_back(gf.target_id);
      }
      ASSERT_EQ(streamed.size(), materialized->size());
      for (std::size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i], (*materialized)[i].target_id) << i;
      }
    }
  }
}

TEST_F(FeatureSourceTest, StreamingReaderEndIsSticky) {
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  auto reader =
      StreamingShardReader::Open(*src, 0, 1, {.batch_size = 100});
  ASSERT_TRUE(reader.ok());
  auto batch = reader->Next();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 10u);  // whole dataset in one batch
  for (int i = 0; i < 3; ++i) {
    auto end = reader->Next();
    ASSERT_TRUE(end.ok());
    EXPECT_TRUE(end->empty());
  }
}

TEST_F(FeatureSourceTest, StreamingReaderBadSpecRejected) {
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  EXPECT_FALSE(StreamingShardReader::Open(*src, -1, 2, {}).ok());
  EXPECT_FALSE(StreamingShardReader::Open(*src, 2, 2, {}).ok());
  EXPECT_FALSE(
      StreamingShardReader::Open(*src, 0, 1, {.batch_size = 0}).ok());
}

TEST_F(FeatureSourceTest, StreamingReaderSurfacesCorruption) {
  // The read error surfaces before the stream ends, and every later Next()
  // returns it again: the reader never skips to the records behind it.
  auto parts = dfs_->ListParts("features");
  ASSERT_TRUE(parts.ok());
  FlipTrailingByte((*parts)[0]);
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  auto reader = StreamingShardReader::Open(*src, 0, 1, {.batch_size = 2});
  ASSERT_TRUE(reader.ok());
  agl::Status first_error;
  for (int i = 0; i < 32 && first_error.ok(); ++i) {
    auto batch = reader->Next();
    if (!batch.ok()) {
      first_error = batch.status();
    } else {
      ASSERT_FALSE(batch->empty()) << "stream ended without surfacing error";
    }
  }
  ASSERT_EQ(first_error.code(), StatusCode::kCorruption);
  for (int i = 0; i < 3; ++i) {
    auto again = reader->Next();
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().ToString(), first_error.ToString());
  }
}

TEST_F(FeatureSourceTest, TrainStreamingMatchesMaterializedTraining) {
  // One worker, async: the stream yields the same batches in the same
  // order as training over ReadAll()'s span, so the trajectories agree.
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  auto all = src->ReadAll();
  ASSERT_TRUE(all.ok());

  TrainerConfig config;
  config.model.type = gnn::ModelType::kGcn;
  config.model.num_layers = 1;
  config.model.in_dim = 1;
  config.model.hidden_dim = 4;
  config.model.out_dim = 2;
  config.model.dropout = 0.f;
  config.task = TaskKind::kBinaryAuc;
  config.num_workers = 1;
  config.batch_size = 4;
  config.epochs = 3;
  config.eval_every = 0;

  auto streamed = GraphTrainer(config).TrainStreaming(*src, {});
  auto materialized = GraphTrainer(config).Train(*all, {});
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(materialized.ok());
  ASSERT_EQ(streamed->epochs.size(), materialized->epochs.size());
  for (std::size_t i = 0; i < streamed->epochs.size(); ++i) {
    EXPECT_EQ(streamed->epochs[i].mean_train_loss,
              materialized->epochs[i].mean_train_loss)
        << "epoch " << i;
  }
  for (const auto& [key, value] : materialized->final_state) {
    EXPECT_TRUE(streamed->final_state.at(key).AllClose(value, 0.f)) << key;
  }
}

TEST_F(FeatureSourceTest, TrainStreamingReadErrorEndsTraining) {
  // A corrupt part file ends training with the read error itself (not a
  // kAborted echo of the teardown) and every worker joins: inline and
  // pipelined, async and lockstep SSP with peers parked at the gate.
  auto parts = dfs_->ListParts("features");
  ASSERT_TRUE(parts.ok());
  FlipTrailingByte((*parts)[0]);
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  for (bool pipeline : {true, false}) {
    for (SyncMode mode : {SyncMode::kAsync, SyncMode::kSsp}) {
      TrainerConfig config;
      config.model.type = gnn::ModelType::kGcn;
      config.model.num_layers = 1;
      config.model.in_dim = 1;
      config.model.hidden_dim = 4;
      config.model.out_dim = 2;
      config.task = TaskKind::kBinaryAuc;
      config.sync_mode = mode;
      config.staleness_bound = 0;
      config.use_pipeline = pipeline;
      config.num_workers = 3;
      config.batch_size = 2;
      config.epochs = 2;
      config.eval_every = 0;
      auto report = GraphTrainer(config).TrainStreaming(*src, {});
      EXPECT_EQ(report.status().code(), StatusCode::kCorruption)
          << "pipeline=" << pipeline << " mode=" << static_cast<int>(mode)
          << ": " << report.status().ToString();
    }
  }
}

TEST_F(FeatureSourceTest, TrainStreamingRejectsBsp) {
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  TrainerConfig config;
  config.sync_mode = SyncMode::kBsp;
  auto report = GraphTrainer(config).TrainStreaming(*src, {});
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FeatureSourceTest, TrainStreamingSspLockstep) {
  // Multi-worker SSP straight off the DFS: bound 0 lockstep must finish
  // and never admit a pull beyond the bound.
  auto src = DfsFeatureSource::Open(*dfs_, "features");
  ASSERT_TRUE(src.ok());
  TrainerConfig config;
  config.model.type = gnn::ModelType::kGcn;
  config.model.num_layers = 1;
  config.model.in_dim = 1;
  config.model.hidden_dim = 4;
  config.model.out_dim = 2;
  config.task = TaskKind::kBinaryAuc;
  config.sync_mode = SyncMode::kSsp;
  config.staleness_bound = 0;
  config.num_workers = 3;
  config.batch_size = 2;
  config.epochs = 2;
  config.eval_every = 0;
  auto report = GraphTrainer(config).TrainStreaming(*src, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->ps_stats.max_staleness, 0);
  EXPECT_GT(report->ps_stats.ssp_commits, 0);
}

}  // namespace
}  // namespace agl::trainer
