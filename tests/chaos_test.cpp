// Chaos harness: randomized failpoint schedules thrown at the full
// graphflat -> train -> infer pipeline. Every schedule is deterministic
// (derived from its index), and every run must end in exactly one of two
// states:
//
//   * every stage succeeded and the outputs are byte-identical to the
//     fault-free reference run (injected transient errors were absorbed by
//     the retry/recovery layers without perturbing any arithmetic), or
//   * some stage returned a clean non-OK Status (no hang, no crash, no
//     partial output passed downstream).
//
// Either way the DFS must hold zero torn datasets afterwards: reopening
// the root (which sweeps scratch left by injected "crashes") followed by
// ValidateAllDatasets() must come back clean. When the failed stage was
// the trainer and a mid-epoch checkpoint survived, the harness also
// re-runs training with resume=true and faults cleared — the recovered
// run must be bit-identical to the reference.
//
// To reproduce one schedule outside the harness, set AGL_FAILPOINTS to
// the spec string logged with the failure (the harness arms its schedules
// through the same ApplySpec grammar the env variable uses).
//
// The default run covers 50 schedules; AGL_CHAOS_HEAVY=1 (the ctest
// "chaos_sweep" entry) extends the sweep.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "agl/agl.h"
#include "analytics/programs.h"
#include "analytics/vertex_program.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace agl {
namespace {

constexpr uint64_t kChaosSeed = 0xc7a05;

enum class Stage { kNone, kFlat, kLoad, kTrain, kInfer };

struct PipelineOutput {
  Stage failed_stage = Stage::kNone;
  agl::Status status;       // first failing stage's status (OK otherwise)
  std::string train_state;  // SerializeState(final_state)
  std::vector<std::pair<flat::NodeId, std::vector<float>>> scores;
};

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("agl_chaos_" + std::to_string(::getpid())))
                .string();
    data::UugLikeOptions opts;
    opts.num_nodes = 150;
    opts.feature_dim = 6;
    opts.train_size = 64;
    opts.val_size = 30;
    opts.test_size = 30;
    ds_ = data::MakeUugLike(opts);
  }
  void TearDown() override {
    fail::FailpointRegistry::Global().ClearAll();
    std::filesystem::remove_all(root_);
  }

  trainer::TrainerConfig TrainConfig(mr::LocalDfs* dfs) const {
    trainer::TrainerConfig config;
    config.model.type = gnn::ModelType::kGcn;
    config.model.num_layers = 1;
    config.model.in_dim = ds_.feature_dim;
    config.model.hidden_dim = 8;
    config.model.out_dim = 2;
    config.task = trainer::TaskKind::kBinaryAuc;
    config.sync_mode = trainer::SyncMode::kSsp;
    config.staleness_bound = 0;
    config.num_workers = 2;
    config.batch_size = 8;
    config.epochs = 2;
    config.checkpoint_dfs = dfs;
    config.checkpoint_every_batches = 2;
    return config;
  }

  /// One full pipeline pass under whatever failpoints are currently armed.
  /// Stops at the first failing stage; later stages never see partial
  /// output.
  PipelineOutput RunPipeline(const std::string& run_root) {
    PipelineOutput out;
    auto dfs = mr::LocalDfs::Open(run_root + "/dfs");
    if (!dfs.ok()) {
      out.failed_stage = Stage::kFlat;
      out.status = dfs.status();
      return out;
    }
    flat::GraphFlatConfig fconfig;
    fconfig.hops = 1;
    auto fstats = agl::Run(fconfig, ds_.nodes, ds_.edges, &*dfs, "features");
    if (!fstats.ok()) {
      out.failed_stage = Stage::kFlat;
      out.status = fstats.status();
      return out;
    }
    auto features = LoadGraphFeatures(*dfs, "features");
    if (!features.ok()) {
      out.failed_stage = Stage::kLoad;
      out.status = features.status();
      return out;
    }
    auto splits = data::SplitFeatures(std::move(features).value(), ds_);
    auto report =
        trainer::GraphTrainer(TrainConfig(&*dfs))
            .Train(splits.train, splits.val);
    if (!report.ok()) {
      out.failed_stage = Stage::kTrain;
      out.status = report.status();
      return out;
    }
    out.train_state = SerializeState(report->final_state);
    std::filesystem::create_directories(run_root + "/spill");
    infer::InferConfig iconfig;
    iconfig.model = TrainConfig(nullptr).model;
    iconfig.num_shards = 2;
    iconfig.batch_slices = 2;
    iconfig.cache_budget_bytes = 4096;
    iconfig.cache_spill_path = run_root + "/spill/cache.rec";
    auto inference = infer::RunGraphInferBatched(
        iconfig, report->final_state, ds_.nodes, ds_.edges);
    if (!inference.ok()) {
      out.failed_stage = Stage::kInfer;
      out.status = inference.status();
      return out;
    }
    out.scores = std::move(inference->scores);
    return out;
  }

  /// Draws a deterministic random schedule for iteration `i`: 1-3 sites,
  /// each in crash or error mode, probabilistic or hit-targeted. Returned
  /// in the AGL_FAILPOINTS grammar so a failure log is directly
  /// reproducible.
  std::string MakeSchedule(uint64_t i) {
    Rng rng(DeriveSeed(kChaosSeed, i));
    const std::vector<std::string>& sites = fail::KnownSites();
    const int num_sites = static_cast<int>(rng.UniformInt(1, 3));
    std::string spec = "seed=" + std::to_string(i);
    for (int s = 0; s < num_sites; ++s) {
      const std::string& site =
          sites[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<int64_t>(sites.size()) - 1))];
      std::string entry = site + "=";
      const bool crash = rng.Bernoulli(0.3);
      entry += crash ? "crash" : "error";
      if (!crash) {
        static const char* kCodes[] = {"IoError", "Unavailable", "Aborted",
                                       "Internal", "Corruption"};
        entry += "(";
        entry += kCodes[rng.UniformInt(0, 4)];
        entry += ",1.0)";
      }
      if (rng.Bernoulli(0.5)) {
        // Hit-targeted: fire once somewhere in the schedule.
        entry += "@";
        entry += std::to_string(rng.UniformInt(1, 60));
        entry += "x1";
      } else {
        // Probabilistic: low rate so retries can win some runs.
        const int pct = static_cast<int>(rng.UniformInt(2, 20));
        std::string prob = "0.";
        if (pct < 10) prob += "0";
        prob += std::to_string(pct);
        if (entry.find('(') == std::string::npos) {
          entry += "(" + prob + ")";
        } else {
          // Splice the probability into the existing "(code,1.0)".
          std::string spliced = entry.substr(0, entry.size() - 4);
          spliced += prob;
          spliced += ")";
          entry = std::move(spliced);
        }
      }
      spec += ";" + entry;
    }
    return spec;
  }

  /// Like MakeSchedule, but restricted to the sites an analytics job
  /// actually crosses (MR tasks + DFS publish), so both outcome classes
  /// stay reachable on the shorter pipeline.
  std::string MakeAnalyticsSchedule(uint64_t i) {
    static const char* kSites[] = {"mr.map", "mr.reduce", "dfs.read",
                                   "dfs.write", "dfs.rename"};
    Rng rng(DeriveSeed(kChaosSeed ^ 0xa7a1, i));
    const int num_sites = static_cast<int>(rng.UniformInt(1, 2));
    std::string spec = "seed=" + std::to_string(i);
    for (int s = 0; s < num_sites; ++s) {
      std::string entry = kSites[rng.UniformInt(0, 4)];
      entry += "=";
      if (rng.Bernoulli(0.3)) {
        entry += "crash@" + std::to_string(rng.UniformInt(1, 40)) + "x1";
      } else {
        static const char* kCodes[] = {"IoError", "Unavailable", "Aborted",
                                       "Internal", "Corruption"};
        entry += "error(";
        entry += kCodes[rng.UniformInt(0, 4)];
        if (rng.Bernoulli(0.5)) {
          entry += ",1.0)@" + std::to_string(rng.UniformInt(1, 40)) + "x1";
        } else {
          const int pct = static_cast<int>(rng.UniformInt(2, 15));
          entry += ",0.";
          if (pct < 10) entry += "0";
          entry += std::to_string(pct) + ")";
        }
      }
      spec += ";" + entry;
    }
    return spec;
  }

  std::string root_;
  data::Dataset ds_;
};

TEST_F(ChaosTest, RandomScheduleSweep) {
  // Fault-free reference.
  PipelineOutput ref = RunPipeline(root_ + "/ref");
  ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
  ASSERT_EQ(ref.failed_stage, Stage::kNone);
  ASSERT_FALSE(ref.scores.empty());

  const bool heavy = std::getenv("AGL_CHAOS_HEAVY") != nullptr;
  const int schedules = heavy ? 300 : 50;
  int clean_failures = 0;
  int absorbed = 0;
  int resumes_checked = 0;
  for (int i = 0; i < schedules; ++i) {
    const std::string spec = MakeSchedule(static_cast<uint64_t>(i));
    SCOPED_TRACE("schedule " + std::to_string(i) + ": AGL_FAILPOINTS=\"" +
                 spec + "\"");
    ASSERT_TRUE(fail::ApplySpec(spec).ok());
    const std::string run_root = root_ + "/run" + std::to_string(i);
    PipelineOutput out = RunPipeline(run_root);
    fail::FailpointRegistry::Global().ClearAll();

    if (out.status.ok()) {
      // Faults absorbed (retries, spill degradation, sub-threshold
      // probability): the outputs must be byte-identical to the fault-free
      // run — absorbed never means "slightly different".
      ++absorbed;
      EXPECT_EQ(out.train_state, ref.train_state);
      EXPECT_EQ(out.scores, ref.scores);
    } else {
      ++clean_failures;
    }

    // Zero torn datasets: reopening sweeps any crash-orphaned scratch,
    // after which every published dataset must verify against its
    // manifest.
    auto reopened = mr::LocalDfs::Open(run_root + "/dfs");
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    agl::Status integrity = reopened->ValidateAllDatasets();
    EXPECT_TRUE(integrity.ok()) << integrity.ToString();

    // Crash-recovery: when the trainer died after a checkpoint barrier,
    // resuming with faults cleared must land exactly where the
    // uninterrupted run did.
    if (out.failed_stage == Stage::kTrain &&
        reopened->DatasetExists(
            trainer::MidCheckpointName("checkpoint"))) {
      auto features = LoadGraphFeatures(*reopened, "features");
      ASSERT_TRUE(features.ok()) << features.status().ToString();
      auto splits = data::SplitFeatures(std::move(features).value(), ds_);
      trainer::TrainerConfig config = TrainConfig(&*reopened);
      config.resume = true;
      auto resumed =
          trainer::GraphTrainer(config).Train(splits.train, splits.val);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ(SerializeState(resumed->final_state), ref.train_state);
      ++resumes_checked;
    }
    std::filesystem::remove_all(run_root);
  }
  // The sweep must actually bite, in every mode: schedules are seeded
  // deterministically, so all three outcome classes occur on every run
  // (all-absorbed would mean the injection sites are dead code; zero
  // absorbed would mean the retry layers never win; zero resumes would
  // mean the crash/checkpoint interplay went untested).
  EXPECT_GT(clean_failures, 0);
  EXPECT_GT(absorbed, 0);
  EXPECT_GT(resumes_checked, 0);
  std::cerr << "[chaos] " << schedules << " schedules: " << clean_failures
            << " clean failures, " << absorbed << " absorbed, "
            << resumes_checked << " checkpoint resumes verified\n";
}

// Second job family under chaos: a sharded PageRank analytics run with
// mr.map / mr.reduce / dfs.* failpoints armed. Same contract as the
// pipeline sweep — every schedule either is absorbed (output byte-identical
// to the fault-free reference, both the in-memory values and the published
// GraphFeatures dataset) or fails with a clean Status, and the DFS holds
// zero torn datasets either way.
TEST_F(ChaosTest, AnalyticsPageRankSchedules) {
  analytics::PageRankProgram program(0.85, 1e-8);
  analytics::AnalyticsConfig config;
  config.max_supersteps = 200;
  config.num_shards = 2;
  config.job.num_workers = 4;
  config.job.num_map_tasks = 3;
  config.job.num_reduce_tasks = 4;
  config.job.max_task_attempts = 20;

  // Fault-free reference.
  auto ref_dfs = mr::LocalDfs::Open(root_ + "/aref/dfs");
  ASSERT_TRUE(ref_dfs.ok());
  auto ref = analytics::RunVertexProgram(config, program, ds_.nodes,
                                        ds_.edges);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_TRUE(
      analytics::WriteValuesDataset(*ref, config, &*ref_dfs, "pagerank")
          .ok());
  ASSERT_TRUE(ref->stats.converged);
  auto ref_bytes = ref_dfs->ReadDataset("pagerank");
  ASSERT_TRUE(ref_bytes.ok());
  const std::string ref_values = ref->SerializeValues();

  const bool heavy = std::getenv("AGL_CHAOS_HEAVY") != nullptr;
  const int schedules = heavy ? 120 : 40;
  int clean_failures = 0;
  int absorbed = 0;
  for (int i = 0; i < schedules; ++i) {
    const std::string spec = MakeAnalyticsSchedule(static_cast<uint64_t>(i));
    SCOPED_TRACE("analytics schedule " + std::to_string(i) +
                 ": AGL_FAILPOINTS=\"" + spec + "\"");
    const std::string run_root = root_ + "/arun" + std::to_string(i);
    ASSERT_TRUE(fail::ApplySpec(spec).ok());
    agl::Status status;
    auto dfs = mr::LocalDfs::Open(run_root + "/dfs");
    if (!dfs.ok()) {
      status = dfs.status();
    } else {
      auto out = analytics::RunVertexProgram(config, program, ds_.nodes,
                                             ds_.edges);
      status = out.ok() ? analytics::WriteValuesDataset(*out, config, &*dfs,
                                                        "pagerank")
                        : out.status();
      if (out.ok()) {
        EXPECT_TRUE(out->SerializeValues() == ref_values);
      }
    }
    fail::FailpointRegistry::Global().ClearAll();

    if (status.ok()) {
      ++absorbed;
      auto bytes = dfs->ReadDataset("pagerank");
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      EXPECT_TRUE(*bytes == *ref_bytes);
    } else {
      ++clean_failures;
    }

    auto reopened = mr::LocalDfs::Open(run_root + "/dfs");
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    agl::Status integrity = reopened->ValidateAllDatasets();
    EXPECT_TRUE(integrity.ok()) << integrity.ToString();
    std::filesystem::remove_all(run_root);
  }
  EXPECT_GT(clean_failures, 0);
  EXPECT_GT(absorbed, 0);
  std::cerr << "[chaos] analytics: " << schedules << " schedules, "
            << clean_failures << " clean failures, " << absorbed
            << " absorbed\n";
}

// Third job family under chaos: the always-on inference service driven
// through score -> mutate -> score -> persist -> restart -> score with
// infer.spill / dfs.* failpoints armed. Contract: every score call that
// returns OK is byte-identical to the fault-free reference for the same
// graph epoch (spill faults degrade to recompute, NEVER to different
// bytes); every failure is a clean Status; and the DFS holds zero torn
// datasets afterwards. A faulted store re-open silently degrades to a
// cold start, which is an absorbed outcome, not a failure.
TEST_F(ChaosTest, ServeSchedules) {
  gnn::ModelConfig mconfig;
  mconfig.type = gnn::ModelType::kGcn;
  mconfig.num_layers = 1;
  mconfig.in_dim = ds_.feature_dim;
  mconfig.hidden_dim = 8;
  mconfig.out_dim = 2;
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();

  std::vector<flat::NodeId> all;
  for (const auto& n : ds_.nodes) all.push_back(n.id);

  // Fixed mutation batch (one edge drop, one feature rewrite) applied to
  // a reference copy of the tables, so both graph epochs have an oracle.
  std::vector<serve::Mutation> batch;
  batch.push_back(*serve::Mutation::Parse(
      "remove-edge " + std::to_string(ds_.edges[0].src) + " " +
      std::to_string(ds_.edges[0].dst)));
  batch.push_back(*serve::Mutation::Parse("update-features 5 4,3,2,1,0,-1"));
  std::vector<flat::NodeRecord> post_nodes = ds_.nodes;
  std::vector<flat::EdgeRecord> post_edges = ds_.edges;
  for (const auto& m : batch) {
    ASSERT_TRUE(serve::ApplyMutation(m, &post_nodes, &post_edges).ok());
  }

  serve::ServeConfig sconfig;
  sconfig.infer.model = mconfig;
  sconfig.infer.batch_slices = 2;
  // Budget far below the working set: every pass churns the spill file,
  // keeping the infer.spill / dfs.write sites hot while serving.
  sconfig.store_budget_bytes = 4096;

  struct ServeOut {
    agl::Status status;
    std::vector<std::pair<flat::NodeId, std::vector<float>>> pre, post, warm;
    bool opened_warm = false;
  };
  auto run_sequence = [&](const std::string& run_root) -> ServeOut {
    ServeOut out;
    auto dfs = mr::LocalDfs::Open(run_root + "/dfs");
    if (!dfs.ok()) {
      out.status = dfs.status();
      return out;
    }
    auto svc = agl::Run(sconfig, state, ds_.nodes, ds_.edges, &*dfs);
    if (!svc.ok()) {
      out.status = svc.status();
      return out;
    }
    auto pre = (*svc)->Score(all);
    if (!pre.ok()) {
      out.status = pre.status();
      return out;
    }
    out.pre = std::move(pre).value();
    out.status = (*svc)->ApplyMutations(batch);
    if (!out.status.ok()) return out;
    auto post = (*svc)->Score(all);
    if (!post.ok()) {
      out.status = post.status();
      return out;
    }
    out.post = std::move(post).value();
    out.status = (*svc)->Persist();
    if (!out.status.ok()) return out;
    out.status = (*svc)->Shutdown();
    if (!out.status.ok()) return out;
    svc->reset();
    // "New process": same DFS root, the mutated tables (tables and store
    // root travel together across restarts).
    auto svc2 = agl::Run(sconfig, state, post_nodes, post_edges, &*dfs);
    if (!svc2.ok()) {
      out.status = svc2.status();
      return out;
    }
    out.opened_warm = (*svc2)->stats().opened_warm;
    auto warm = (*svc2)->Score(all);
    if (!warm.ok()) {
      out.status = warm.status();
      return out;
    }
    out.warm = std::move(warm).value();
    out.status = agl::Status::OK();
    return out;
  };

  // Fault-free reference.
  ServeOut ref = run_sequence(root_ + "/sref");
  ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
  ASSERT_TRUE(ref.opened_warm);
  ASSERT_FALSE(ref.pre.empty());
  // The warm restart serves the post-mutation epoch.
  ASSERT_EQ(ref.warm, ref.post);
  ASSERT_NE(ref.pre, ref.post);

  auto make_schedule = [&](uint64_t i) {
    static const char* kSites[] = {"infer.spill", "dfs.read", "dfs.write",
                                   "dfs.rename"};
    Rng rng(DeriveSeed(kChaosSeed ^ 0x5e44e, i));
    const int num_sites = static_cast<int>(rng.UniformInt(1, 2));
    std::string spec = "seed=" + std::to_string(i);
    for (int s = 0; s < num_sites; ++s) {
      std::string entry = kSites[rng.UniformInt(0, 3)];
      entry += "=";
      if (rng.Bernoulli(0.3)) {
        entry += "crash@" + std::to_string(rng.UniformInt(1, 40)) + "x1";
      } else {
        static const char* kCodes[] = {"IoError", "Unavailable", "Aborted",
                                       "Internal", "Corruption"};
        entry += "error(";
        entry += kCodes[rng.UniformInt(0, 4)];
        if (rng.Bernoulli(0.5)) {
          entry += ",1.0)@" + std::to_string(rng.UniformInt(1, 40)) + "x1";
        } else {
          const int pct = static_cast<int>(rng.UniformInt(2, 15));
          entry += ",0.";
          if (pct < 10) entry += "0";
          entry += std::to_string(pct) + ")";
        }
      }
      spec += ";" + entry;
    }
    return spec;
  };

  const bool heavy = std::getenv("AGL_CHAOS_HEAVY") != nullptr;
  const int schedules = heavy ? 80 : 30;
  int clean_failures = 0;
  int absorbed = 0;
  int warm_reopens = 0;
  for (int i = 0; i < schedules; ++i) {
    const std::string spec = make_schedule(static_cast<uint64_t>(i));
    SCOPED_TRACE("serve schedule " + std::to_string(i) +
                 ": AGL_FAILPOINTS=\"" + spec + "\"");
    const std::string run_root = root_ + "/srun" + std::to_string(i);
    ASSERT_TRUE(fail::ApplySpec(spec).ok());
    ServeOut out = run_sequence(run_root);
    fail::FailpointRegistry::Global().ClearAll();

    // Byte-identity for every stage that produced scores, regardless of
    // how the run ended: a degraded store recomputes, it never lies.
    if (!out.pre.empty()) {
      EXPECT_EQ(out.pre, ref.pre);
    }
    if (!out.post.empty()) {
      EXPECT_EQ(out.post, ref.post);
    }
    if (!out.warm.empty()) {
      EXPECT_EQ(out.warm, ref.post);
    }

    if (out.status.ok()) {
      ++absorbed;
      if (out.opened_warm) ++warm_reopens;
    } else {
      ++clean_failures;
    }

    auto reopened = mr::LocalDfs::Open(run_root + "/dfs");
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    agl::Status integrity = reopened->ValidateAllDatasets();
    EXPECT_TRUE(integrity.ok()) << integrity.ToString();
    std::filesystem::remove_all(run_root);
  }
  EXPECT_GT(clean_failures, 0);
  EXPECT_GT(absorbed, 0);
  EXPECT_GT(warm_reopens, 0);
  std::cerr << "[chaos] serve: " << schedules << " schedules, "
            << clean_failures << " clean failures, " << absorbed
            << " absorbed (" << warm_reopens << " warm re-opens)\n";
}

TEST_F(ChaosTest, EnvSpecSmoke) {
  // The exact path a reproduction uses: arm via the spec grammar, one
  // deterministic crash in GraphFlat's reduce, then verify the DFS is
  // recoverable and a clean re-run succeeds.
  ASSERT_TRUE(fail::ApplySpec("mr.reduce=crash@1x1").ok());
  PipelineOutput out = RunPipeline(root_ + "/env");
  fail::FailpointRegistry::Global().ClearAll();
  ASSERT_FALSE(out.status.ok());
  EXPECT_TRUE(fail::IsInjectedCrash(out.status)) << out.status.ToString();
  auto reopened = mr::LocalDfs::Open(root_ + "/env/dfs");
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->ValidateAllDatasets().ok());
  // The sweep left a usable root: the pipeline completes on retry.
  PipelineOutput retry = RunPipeline(root_ + "/env");
  EXPECT_TRUE(retry.status.ok()) << retry.status.ToString();
}

}  // namespace
}  // namespace agl
