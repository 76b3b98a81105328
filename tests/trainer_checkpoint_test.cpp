// Mid-epoch checkpoint/resume tests: the kill-and-resume property (a run
// crashed at batch k and resumed from the rolling "-mid" checkpoint ends
// bit-identical to the uninterrupted run) across the deterministic modes,
// plus checkpoint-format rejection (corruption, fingerprint mismatch) and
// the config validations.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "data/dataset.h"
#include "flat/graphflat.h"
#include "io/codec.h"
#include "mr/local_dfs.h"
#include "trainer/checkpoint.h"
#include "trainer/feature_source.h"
#include "trainer/trainer.h"

namespace agl::trainer {
namespace {

// --- Checkpoint format ------------------------------------------------------

tensor::Tensor FilledTensor(int64_t rows, int64_t cols, float start) {
  tensor::Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = start + 0.25f * i;
  return t;
}

TrainCheckpoint SampleCheckpoint() {
  TrainCheckpoint c;
  c.fingerprint = 0xfeedface;
  c.epoch = 2;
  c.tick = 6;
  c.best_val_metric = 0.875;
  c.bad_evals = 1;
  c.cursors.resize(2);
  c.cursors[0] = {6, 1.5, "12345 67 state-a"};
  c.cursors[1] = {6, 2.25, "99 1 state-b"};
  ps::ExportedParam p0;
  p0.value = FilledTensor(2, 3, 1.f);
  p0.opt_state.t = 11;
  p0.opt_state.m = FilledTensor(2, 3, -1.f);
  p0.opt_state.v = FilledTensor(2, 3, 0.5f);
  c.ps_state.emplace("layer0.w", std::move(p0));
  ps::ExportedParam p1;
  p1.value = FilledTensor(1, 3, 4.f);
  c.ps_state.emplace("layer0.b", std::move(p1));
  return c;
}

TEST(TrainCheckpointFormat, RoundTrip) {
  const TrainCheckpoint c = SampleCheckpoint();
  auto parsed = ParseTrainCheckpoint(SerializeTrainCheckpoint(c),
                                     c.fingerprint);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->fingerprint, c.fingerprint);
  EXPECT_EQ(parsed->epoch, c.epoch);
  EXPECT_EQ(parsed->tick, c.tick);
  EXPECT_EQ(parsed->best_val_metric, c.best_val_metric);
  EXPECT_EQ(parsed->bad_evals, c.bad_evals);
  ASSERT_EQ(parsed->cursors.size(), c.cursors.size());
  for (std::size_t i = 0; i < c.cursors.size(); ++i) {
    EXPECT_EQ(parsed->cursors[i].next_batch, c.cursors[i].next_batch);
    EXPECT_EQ(parsed->cursors[i].loss_sum, c.cursors[i].loss_sum);
    EXPECT_EQ(parsed->cursors[i].rng_state, c.cursors[i].rng_state);
  }
  ASSERT_EQ(parsed->ps_state.size(), c.ps_state.size());
  for (const auto& [name, param] : c.ps_state) {
    const ps::ExportedParam& got = parsed->ps_state.at(name);
    EXPECT_TRUE(got.value.AllClose(param.value, 0.f)) << name;
    EXPECT_EQ(got.opt_state.t, param.opt_state.t) << name;
    EXPECT_TRUE(got.opt_state.m.AllClose(param.opt_state.m, 0.f)) << name;
    EXPECT_TRUE(got.opt_state.v.AllClose(param.opt_state.v, 0.f)) << name;
  }
}

TEST(TrainCheckpointFormat, BadMagicIsCorruption) {
  std::string bytes = SerializeTrainCheckpoint(SampleCheckpoint());
  bytes[0] = 'X';
  auto parsed = ParseTrainCheckpoint(bytes, 0xfeedface);
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(TrainCheckpointFormat, EveryTruncationIsCorruption) {
  // Cut the serialized checkpoint at every byte: a torn write must never
  // parse into a state the trainer would resume from.
  const std::string full = SerializeTrainCheckpoint(SampleCheckpoint());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    auto parsed = ParseTrainCheckpoint(full.substr(0, cut), 0xfeedface);
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption)
        << "cut at " << cut;
  }
}

TEST(TrainCheckpointFormat, TrailingBytesAreCorruption) {
  std::string bytes = SerializeTrainCheckpoint(SampleCheckpoint());
  bytes.push_back('\0');
  EXPECT_EQ(ParseTrainCheckpoint(bytes, 0xfeedface).status().code(),
            StatusCode::kCorruption);
}

TEST(TrainCheckpointFormat, FingerprintMismatchIsFailedPrecondition) {
  const std::string bytes = SerializeTrainCheckpoint(SampleCheckpoint());
  auto parsed = ParseTrainCheckpoint(bytes, 0xfeedface + 1);
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TrainCheckpointFormat, BytesArePinned) {
  // AGLCKPT1 is an on-DFS format a resumed run reads back: its bytes for a
  // fixed checkpoint must never drift (the value the format has always
  // produced for SampleCheckpoint).
  EXPECT_EQ(Fnv1aHash(SerializeTrainCheckpoint(SampleCheckpoint())),
            0x474a9e2383404cf2ULL);
}

// AGLCKPT1 bytes whose one parameter claims a rows x cols value tensor but
// carries no floats.
std::string CheckpointWithValueShape(uint64_t rows, uint64_t cols) {
  TrainCheckpoint c = SampleCheckpoint();
  c.ps_state.clear();
  std::string bytes = SerializeTrainCheckpoint(c);
  bytes.pop_back();  // the empty parameter map's count (varint 0)
  io::BufferWriter w;
  w.PutVarint64(1);
  w.PutString("w");
  w.PutVarint64(rows);
  w.PutVarint64(cols);
  w.PutFloatArray({});
  w.PutVarint64(0);  // Adam step
  for (int moment = 0; moment < 2; ++moment) {  // empty m and v
    w.PutVarint64(0);
    w.PutVarint64(0);
    w.PutFloatArray({});
  }
  return bytes + w.Release();
}

TEST(TrainCheckpointFormat, WrappingTensorShapeIsCorruption) {
  // rows * cols wraps to 0 in uint64, matching the empty float array.
  ASSERT_TRUE(ParseTrainCheckpoint(CheckpointWithValueShape(0, 0),
                                   0xfeedface)
                  .ok());
  for (const auto& [rows, cols] :
       {std::pair<uint64_t, uint64_t>{1ULL << 32, 1ULL << 32},
        std::pair<uint64_t, uint64_t>{1ULL << 63, 2}}) {
    auto parsed = ParseTrainCheckpoint(CheckpointWithValueShape(rows, cols),
                                       0xfeedface);
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption)
        << rows << " x " << cols;
  }
}

TEST(TrainCheckpointFormat, HugeCursorCountIsCorruption) {
  // The cursor count is the varint right before the first cursor; a count
  // no input could hold must fail cleanly, not reach the allocator.
  TrainCheckpoint c = SampleCheckpoint();
  c.cursors.clear();
  c.ps_state.clear();
  std::string bytes = SerializeTrainCheckpoint(c);
  bytes.resize(bytes.size() - 2);  // the two empty counts (varint 0 each)
  io::BufferWriter w;
  w.PutVarint64(1ULL << 60);
  auto parsed = ParseTrainCheckpoint(bytes + w.Release(), 0xfeedface);
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(TrainCheckpointFormat, MidCheckpointNaming) {
  EXPECT_EQ(MidCheckpointName("checkpoint"), "checkpoint-mid");
}

// --- Kill-and-resume --------------------------------------------------------

struct Prepared {
  data::Dataset dataset;
  data::FeatureSplits splits;
};

Prepared MakeCase() {
  data::UugLikeOptions opts;
  opts.num_nodes = 240;
  opts.feature_dim = 8;
  opts.train_size = 128;
  opts.val_size = 40;
  opts.test_size = 40;
  Prepared p;
  p.dataset = data::MakeUugLike(opts);
  flat::GraphFlatConfig fc;
  fc.hops = 1;
  auto features =
      flat::RunGraphFlatInMemory(fc, p.dataset.nodes, p.dataset.edges);
  AGL_CHECK(features.ok());
  p.splits = data::SplitFeatures(std::move(features).value(), p.dataset);
  return p;
}

TrainerConfig BaseConfig(const Prepared& p, SyncMode mode, int workers) {
  TrainerConfig config;
  config.model.type = gnn::ModelType::kGcn;
  config.model.num_layers = 1;
  config.model.in_dim = p.dataset.feature_dim;
  config.model.hidden_dim = 8;
  config.model.out_dim = 2;
  // Dropout on: resume must also restore the per-worker RNG streams, not
  // just the weights, to stay bit-exact.
  config.model.dropout = 0.25f;
  config.task = TaskKind::kBinaryAuc;
  config.sync_mode = mode;
  config.staleness_bound = 0;
  config.num_workers = workers;
  config.batch_size = 8;
  config.epochs = 3;
  config.checkpoint_every_batches = 2;
  return config;
}

void ExpectStateBitIdentical(
    const std::map<std::string, tensor::Tensor>& a,
    const std::map<std::string, tensor::Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, value] : a) {
    ASSERT_TRUE(b.count(key)) << key;
    EXPECT_TRUE(b.at(key).AllClose(value, 0.f)) << key;
  }
}

class KillResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = (std::filesystem::temp_directory_path() /
             ("agl_ckpt_" + std::string(info->name()) + "_" +
              std::to_string(::getpid())))
                .string();
  }
  void TearDown() override {
    fail::FailpointRegistry::Global().ClearAll();
    std::filesystem::remove_all(root_);
  }

  mr::LocalDfs OpenDfs(const std::string& sub) {
    auto dfs = mr::LocalDfs::Open(root_ + "/" + sub);
    AGL_CHECK(dfs.ok());
    return std::move(dfs).value();
  }

  std::string root_;
};

TEST_F(KillResumeTest, ResumeIsBitExactAcrossModesAndWorkerCounts) {
  Prepared p = MakeCase();
  struct Combo {
    SyncMode mode;
    int workers;
    bool pipeline;
  };
  const Combo combos[] = {
      {SyncMode::kBsp, 1, true},  {SyncMode::kBsp, 4, true},
      {SyncMode::kSsp, 1, true},  {SyncMode::kSsp, 4, true},
      {SyncMode::kSsp, 4, false},  // inline (non-pipelined) runner
  };
  for (const Combo& combo : combos) {
    SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(combo.mode)) +
                 " workers=" + std::to_string(combo.workers) +
                 " pipeline=" + std::to_string(combo.pipeline));
    TrainerConfig config = BaseConfig(p, combo.mode, combo.workers);
    config.use_pipeline = combo.pipeline;

    // Reference: the uninterrupted run.
    mr::LocalDfs ref_dfs = OpenDfs("ref" + std::to_string(combo.workers) +
                                   std::to_string(combo.pipeline) +
                                   std::to_string(static_cast<int>(
                                       combo.mode)));
    config.checkpoint_dfs = &ref_dfs;
    auto ref = GraphTrainer(config).Train(p.splits.train, p.splits.val);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    // Completion drops the rolling checkpoint.
    EXPECT_FALSE(ref_dfs.DatasetExists(MidCheckpointName("checkpoint")));

    // Killed run: an injected crash in epoch 1 (16 trainer.step hits per
    // epoch here), after at least one checkpoint barrier completed.
    mr::LocalDfs dfs = OpenDfs("kill" + std::to_string(combo.workers) +
                               std::to_string(combo.pipeline) +
                               std::to_string(static_cast<int>(combo.mode)));
    config.checkpoint_dfs = &dfs;
    {
      fail::ScopedFailpoint fp("trainer.step", fail::CrashOnHit(26));
      auto killed = GraphTrainer(config).Train(p.splits.train, p.splits.val);
      ASSERT_FALSE(killed.ok());
      EXPECT_TRUE(fail::IsInjectedCrash(killed.status()))
          << killed.status().ToString();
    }
    ASSERT_TRUE(dfs.DatasetExists(MidCheckpointName("checkpoint")));

    // Resume: bit-identical to the run that never crashed.
    config.resume = true;
    auto resumed = GraphTrainer(config).Train(p.splits.train, p.splits.val);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectStateBitIdentical(ref->final_state, resumed->final_state);
    EXPECT_EQ(ref->best_val_metric, resumed->best_val_metric);
    EXPECT_FALSE(dfs.DatasetExists(MidCheckpointName("checkpoint")));
  }
}

TEST_F(KillResumeTest, CrashBeforeFirstCheckpointResumesFresh) {
  // A crash before any checkpoint barrier leaves no "-mid"; resume=true
  // then simply starts fresh — and still matches the reference.
  Prepared p = MakeCase();
  TrainerConfig config = BaseConfig(p, SyncMode::kSsp, 4);
  mr::LocalDfs ref_dfs = OpenDfs("ref");
  config.checkpoint_dfs = &ref_dfs;
  auto ref = GraphTrainer(config).Train(p.splits.train, p.splits.val);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  mr::LocalDfs dfs = OpenDfs("kill");
  config.checkpoint_dfs = &dfs;
  {
    fail::ScopedFailpoint fp("trainer.step", fail::CrashOnHit(3));
    auto killed = GraphTrainer(config).Train(p.splits.train, p.splits.val);
    ASSERT_FALSE(killed.ok());
  }
  EXPECT_FALSE(dfs.DatasetExists(MidCheckpointName("checkpoint")));
  config.resume = true;
  auto resumed = GraphTrainer(config).Train(p.splits.train, p.splits.val);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectStateBitIdentical(ref->final_state, resumed->final_state);
}

TEST_F(KillResumeTest, CorruptCheckpointIsRejectedNotResumed) {
  Prepared p = MakeCase();
  TrainerConfig config = BaseConfig(p, SyncMode::kBsp, 2);
  mr::LocalDfs dfs = OpenDfs("corrupt");
  config.checkpoint_dfs = &dfs;
  {
    fail::ScopedFailpoint fp("trainer.step", fail::CrashOnHit(20));
    auto killed = GraphTrainer(config).Train(p.splits.train, p.splits.val);
    ASSERT_FALSE(killed.ok());
  }
  const std::string mid = MidCheckpointName("checkpoint");
  ASSERT_TRUE(dfs.DatasetExists(mid));
  ASSERT_TRUE(dfs.WriteDataset(mid, {"not a checkpoint"}, 1).ok());
  config.resume = true;
  auto resumed = GraphTrainer(config).Train(p.splits.train, p.splits.val);
  EXPECT_EQ(resumed.status().code(), StatusCode::kCorruption);
}

TEST_F(KillResumeTest, MismatchedConfigIsRejectedOnResume) {
  Prepared p = MakeCase();
  TrainerConfig config = BaseConfig(p, SyncMode::kBsp, 2);
  mr::LocalDfs dfs = OpenDfs("mismatch");
  config.checkpoint_dfs = &dfs;
  {
    fail::ScopedFailpoint fp("trainer.step", fail::CrashOnHit(20));
    auto killed = GraphTrainer(config).Train(p.splits.train, p.splits.val);
    ASSERT_FALSE(killed.ok());
  }
  ASSERT_TRUE(dfs.DatasetExists(MidCheckpointName("checkpoint")));
  // Same dataset, different schedule (seed feeds the fingerprint).
  config.resume = true;
  config.seed += 1;
  auto resumed = GraphTrainer(config).Train(p.splits.train, p.splits.val);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

// --- Config validation ------------------------------------------------------

TEST_F(KillResumeTest, AsyncModeRejectsMidCheckpoints) {
  Prepared p = MakeCase();
  TrainerConfig config = BaseConfig(p, SyncMode::kAsync, 2);
  mr::LocalDfs dfs = OpenDfs("async");
  config.checkpoint_dfs = &dfs;
  auto report = GraphTrainer(config).Train(p.splits.train, p.splits.val);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(KillResumeTest, MidCheckpointsNeedADfs) {
  Prepared p = MakeCase();
  TrainerConfig config = BaseConfig(p, SyncMode::kBsp, 2);
  config.checkpoint_dfs = nullptr;
  auto report = GraphTrainer(config).Train(p.splits.train, p.splits.val);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(KillResumeTest, StreamingRejectsMidCheckpoints) {
  // TrainStreaming has no replayable batch cursor (records stream off the
  // DFS); mid-epoch checkpoint/resume is a Train()-only feature.
  Prepared p = MakeCase();
  mr::LocalDfs dfs = OpenDfs("streaming");
  std::vector<std::string> records;
  records.reserve(p.splits.train.size());
  for (const auto& gf : p.splits.train) {
    records.push_back(gf.Serialize());
  }
  ASSERT_TRUE(dfs.WriteDataset("features", records, 4).ok());
  auto source = DfsFeatureSource::Open(dfs, "features");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  TrainerConfig config = BaseConfig(p, SyncMode::kSsp, 2);
  config.checkpoint_dfs = &dfs;
  auto report =
      GraphTrainer(config).TrainStreaming(*source, p.splits.val);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().ToString().find("Train()"), std::string::npos);
}

}  // namespace
}  // namespace agl::trainer
