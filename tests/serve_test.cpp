// Always-on inference service properties (ctest -L serve).
//
// The load-bearing invariants:
//
//   * Served scores are byte-identical to a cold offline
//     RunGraphInferBatched over the current tables — for every coalescing
//     pattern the admission queue happens to produce, and after any
//     mutation batch (the model-aware store invalidation + incremental
//     re-flatten must be exact, not approximate).
//   * A killed-and-restarted service re-opens the persistent store and
//     serves warm hits with the same bytes the first process computed.
//   * The maintained flattened dataset stays byte-identical to a cold
//     RunGraphFlat over the mutated tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "agl/agl.h"
#include "data/dataset.h"
#include "infer/persistent_store.h"
#include "serve/inference_service.h"
#include "serve/mutation.h"

namespace agl::serve {
namespace {

data::Dataset SmallUug(int nodes, int attach_edges = 3) {
  data::UugLikeOptions opts;
  opts.num_nodes = nodes;
  opts.feature_dim = 6;
  opts.attach_edges = attach_edges;
  opts.train_size = nodes / 2;
  opts.val_size = nodes / 8;
  opts.test_size = nodes / 8;
  return data::MakeUugLike(opts);
}

gnn::ModelConfig SmallModel(gnn::ModelType type, int layers, int64_t in_dim) {
  gnn::ModelConfig config;
  config.type = type;
  config.num_layers = layers;
  config.in_dim = in_dim;
  config.hidden_dim = 5;
  config.out_dim = 2;
  config.seed = 17;
  return config;
}

std::vector<flat::NodeId> AllIds(const data::Dataset& ds) {
  std::vector<flat::NodeId> ids;
  for (const auto& n : ds.nodes) ids.push_back(n.id);
  return ids;
}

/// The cold offline reference for a request: a fresh RunGraphInferBatched
/// (no cache at all) over the given tables, same pipeline shape.
InferenceService::Scores ColdScores(
    const infer::InferConfig& base,
    const std::map<std::string, tensor::Tensor>& state,
    const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges,
    const std::vector<flat::NodeId>& targets) {
  infer::InferConfig config = base;
  config.target_ids = targets;
  config.cache_budget_bytes = 0;
  config.cache_spill_path.clear();
  auto result = infer::RunGraphInferBatched(config, state, nodes, edges);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->scores : InferenceService::Scores{};
}

void ExpectScoresIdentical(const InferenceService::Scores& served,
                           const InferenceService::Scores& reference,
                           const std::string& what) {
  ASSERT_EQ(served.size(), reference.size()) << what;
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].first, reference[i].first) << what;
    EXPECT_EQ(served[i].second, reference[i].second)
        << what << " node " << reference[i].first;
  }
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    root_ = (std::filesystem::temp_directory_path() /
             ("agl_serve_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  mr::LocalDfs OpenDfs() {
    auto dfs = mr::LocalDfs::Open(root_);
    EXPECT_TRUE(dfs.ok()) << dfs.status().ToString();
    return std::move(dfs).value();
  }

  std::string root_;
};

// --- mutation.h unit properties -------------------------------------------

TEST(MutationTest, ParseToStringRoundTrip) {
  for (const char* line :
       {"add-edge 3 9 1.5 0.25,1,-2", "add-edge 4 5 1", "remove-edge 7 2",
        "update-features 11 1,2,3.5"}) {
    auto m = Mutation::Parse(line);
    ASSERT_TRUE(m.ok()) << line << ": " << m.status().ToString();
    auto again = Mutation::Parse(m->ToString());
    ASSERT_TRUE(again.ok()) << m->ToString();
    EXPECT_EQ(again->ToString(), m->ToString());
  }
  EXPECT_FALSE(Mutation::Parse("frobnicate 1 2").ok());
  EXPECT_FALSE(Mutation::Parse("add-edge 1").ok());
  EXPECT_FALSE(Mutation::Parse("update-features x 1,2").ok());

  auto stream = ParseMutationStream(
      "# warmup\n\nadd-edge 1 2 1\nremove-edge 2 1\n");
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(stream->size(), 2u);
  auto bad = ParseMutationStream("add-edge 1 2 1\nnope\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(MutationTest, ApplyIsStrictAndAtomicPerMutation) {
  std::vector<flat::NodeRecord> nodes = {{1, {1.f, 2.f}, 0, {}},
                                         {2, {3.f, 4.f}, 1, {}}};
  std::vector<flat::EdgeRecord> edges = {{1, 2, 1.f, {}}};

  auto parse = [](const char* s) { return *Mutation::Parse(s); };
  // Unknown endpoint / duplicate edge / missing edge / width mismatch.
  EXPECT_EQ(ApplyMutation(parse("add-edge 1 9 1"), &nodes, &edges).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ApplyMutation(parse("add-edge 1 2 1"), &nodes, &edges).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ApplyMutation(parse("remove-edge 2 1"), &nodes, &edges).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      ApplyMutation(parse("update-features 1 1,2,3"), &nodes, &edges).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(edges.size(), 1u);

  EXPECT_TRUE(ApplyMutation(parse("add-edge 2 1 2"), &nodes, &edges).ok());
  EXPECT_TRUE(ApplyMutation(parse("remove-edge 1 2"), &nodes, &edges).ok());
  EXPECT_TRUE(
      ApplyMutation(parse("update-features 1 5,6"), &nodes, &edges).ok());
  EXPECT_EQ(edges.size(), 1u);
  EXPECT_EQ(nodes[0].features, (std::vector<float>{5.f, 6.f}));
}

TEST(MutationTest, DirtySeedsAreModelAware) {
  // Chain 1 -> 2 -> 3 plus 2 -> 4 (so outN(2) = {3, 4}).
  const std::vector<flat::EdgeRecord> pre = {
      {1, 2, 1.f, {}}, {2, 3, 1.f, {}}, {2, 4, 1.f, {}}};
  std::vector<flat::EdgeRecord> post = pre;
  const Mutation add = *Mutation::Parse("add-edge 2 5 1");
  post.push_back(add.edge);

  // Row-normalized models: only the destination's gather row changes.
  DirtySeeds sage =
      ComputeDirtySeeds(gnn::ModelType::kGraphSage, {add}, pre, post);
  EXPECT_EQ(sage.dataset_seeds, (std::vector<flat::NodeId>{5}));
  EXPECT_EQ(sage.cache_seeds,
            (std::vector<std::pair<flat::NodeId, int>>{{5, 1}}));

  // GCN: col_deg(2) changes, so rows {2} + outN(2) join the dst.
  DirtySeeds gcn = ComputeDirtySeeds(gnn::ModelType::kGcn, {add}, pre, post);
  EXPECT_EQ(gcn.dataset_seeds, (std::vector<flat::NodeId>{5}));
  EXPECT_EQ(gcn.cache_seeds, (std::vector<std::pair<flat::NodeId, int>>{
                                 {2, 1}, {3, 1}, {4, 1}, {5, 1}}));

  // A feature update seeds the node itself at base round 0.
  const Mutation feat = *Mutation::Parse("update-features 1 9");
  DirtySeeds f = ComputeDirtySeeds(gnn::ModelType::kGcn, {feat}, pre, pre);
  EXPECT_EQ(f.cache_seeds,
            (std::vector<std::pair<flat::NodeId, int>>{{1, 0}}));
}

TEST(MutationTest, PropagationFloorsFollowOutEdgeDistance) {
  // 1 -> 2 -> 3 -> 4, K = 2.
  const std::vector<flat::EdgeRecord> edges = {
      {1, 2, 1.f, {}}, {2, 3, 1.f, {}}, {3, 4, 1.f, {}}};
  // Feature update at 1 (base 0): floor 1 at node 1, 1 at node 2 (its
  // round-1 embedding aggregates 1's features), 2 at node 3; node 4 is 3
  // hops out — beyond every cached round, so it is absent.
  auto floors = PropagateInvalidations({{1, 0}}, edges, 2);
  EXPECT_EQ(floors, (std::vector<std::pair<flat::NodeId, int32_t>>{
                        {1, 1}, {2, 1}, {3, 2}}));
  // Edge mutation dirtying row 2 (base 1): node 2 from round 1, node 3
  // from round 2; node 4 would start at round 3 > K.
  floors = PropagateInvalidations({{2, 1}}, edges, 2);
  EXPECT_EQ(floors, (std::vector<std::pair<flat::NodeId, int32_t>>{
                        {2, 1}, {3, 2}}));
}

// --- config validation ----------------------------------------------------

TEST_F(ServeTest, ValidateRejectsBadConfigs) {
  data::Dataset ds = SmallUug(20);
  gnn::GnnModel model(SmallModel(gnn::ModelType::kGcn, 2, ds.feature_dim));
  const auto state = model.StateDict();
  mr::LocalDfs dfs = OpenDfs();

  ServeConfig good;
  good.infer.model = SmallModel(gnn::ModelType::kGcn, 2, ds.feature_dim);
  ASSERT_TRUE(good.Validate().ok());

  ServeConfig bad = good;
  bad.max_pending = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = good;
  bad.store_budget_bytes = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = good;
  bad.store_name.clear();
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = good;
  bad.infer.model.num_layers = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = good;
  bad.features_dataset = "features";
  bad.flat.sampler = {sampling::Strategy::kUniform, 3};
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);

  // The facade surfaces Validate() failures before any work runs.
  ServeConfig invalid = good;
  invalid.max_batch_targets = 0;
  auto svc = agl::Run(invalid, state, ds.nodes, ds.edges, &dfs);
  EXPECT_EQ(svc.status().code(), StatusCode::kInvalidArgument);

  // A configured-but-missing features dataset fails fast at Start.
  ServeConfig missing = good;
  missing.features_dataset = "not_there";
  auto svc2 = agl::Run(missing, state, ds.nodes, ds.edges, &dfs);
  EXPECT_EQ(svc2.status().code(), StatusCode::kFailedPrecondition);
}

// A model artifact that does not fit the config, or a node table with a
// row of the wrong width, fails the start cleanly instead of aborting the
// first pass.
TEST_F(ServeTest, StartRejectsMismatchedModelOrNodeTable) {
  data::Dataset ds = SmallUug(20);
  const gnn::ModelConfig trained =
      SmallModel(gnn::ModelType::kGcn, 2, ds.feature_dim);
  const auto state = gnn::GnnModel(trained).StateDict();
  mr::LocalDfs dfs = OpenDfs();

  ServeConfig deeper;
  deeper.infer.model = trained;
  deeper.infer.model.num_layers = 3;
  ServeConfig gat;
  gat.infer.model = trained;
  gat.infer.model.type = gnn::ModelType::kGat;
  for (const ServeConfig& config : {deeper, gat}) {
    auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
    EXPECT_EQ(svc.status().code(), StatusCode::kInvalidArgument);
  }

  ServeConfig ok;
  ok.infer.model = trained;
  std::vector<flat::NodeRecord> ragged = ds.nodes;
  ragged[ragged.size() / 2].features.pop_back();
  auto svc = agl::Run(ok, state, ragged, ds.edges, &dfs);
  EXPECT_EQ(svc.status().code(), StatusCode::kInvalidArgument);
}

// --- serving equivalence --------------------------------------------------

TEST_F(ServeTest, ServedScoresMatchOfflineAcrossCoalescingPatterns) {
  data::Dataset ds = SmallUug(60);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();
  mr::LocalDfs dfs = OpenDfs();

  ServeConfig config;
  config.infer.model = mconfig;
  config.infer.batch_slices = 3;
  auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  InferenceService& service = **svc;

  // Admission-time validation.
  EXPECT_EQ(service.Submit({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Submit({9999}).status().code(), StatusCode::kNotFound);

  const std::vector<flat::NodeId> all = AllIds(ds);
  // Overlapping requests with duplicates, submitted in a burst so the
  // queue coalesces whatever runs it can — the equivalence must hold for
  // every pattern the scheduler produces.
  std::vector<std::vector<flat::NodeId>> requests = {
      {all.begin(), all.begin() + 20},
      {all.begin() + 10, all.begin() + 30},
      {all[5], all[5], all[7], all[3]},
      {all.begin() + 25, all.end()},
      {all[0]},
  };
  std::vector<std::shared_ptr<InferenceService::Pending>> pending;
  for (const auto& r : requests) {
    auto p = service.Submit(r);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    pending.push_back(*p);
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto served = pending[i]->Wait();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    // Per-request responses are deduplicated and sorted by id.
    std::vector<flat::NodeId> ids = requests[i];
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ExpectScoresIdentical(*served,
                          ColdScores(config.infer, state, ds.nodes, ds.edges,
                                     ids),
                          "request " + std::to_string(i));
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.admitted, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.served, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.batches, static_cast<int64_t>(requests.size()));

  // A second pass over the same targets is served from the store.
  auto again = service.Score(all);
  ASSERT_TRUE(again.ok());
  ExpectScoresIdentical(
      *again, ColdScores(config.infer, state, ds.nodes, ds.edges, all),
      "second pass");
  EXPECT_GT(service.stats().store.hits, 0);
}

TEST_F(ServeTest, AdmissionBoundRejectsAndShutdownDrains) {
  data::Dataset ds = SmallUug(80, 4);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGcn, 3, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();
  mr::LocalDfs dfs = OpenDfs();

  ServeConfig config;
  config.infer.model = mconfig;
  config.max_pending = 1;
  auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  InferenceService& service = **svc;

  // Keep the serving thread busy with full-graph passes, then flood: with
  // one slot, rejections must appear long before 200 submits drain.
  const std::vector<flat::NodeId> all = AllIds(ds);
  std::vector<std::shared_ptr<InferenceService::Pending>> accepted;
  bool rejected = false;
  for (int i = 0; i < 200 && !rejected; ++i) {
    auto p = service.Submit(all);
    if (p.ok()) {
      accepted.push_back(*p);
    } else {
      ASSERT_EQ(p.status().code(), StatusCode::kResourceExhausted);
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected);
  for (auto& p : accepted) {
    auto served = p->Wait();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }
  EXPECT_GT(service.stats().rejected, 0);

  ASSERT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(service.Submit(all).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.ApplyMutations({*Mutation::Parse("remove-edge 0 1")})
                .code(),
            StatusCode::kFailedPrecondition);
}

// --- persistence ----------------------------------------------------------

TEST_F(ServeTest, PersistentStoreSurvivesReopenAndDegradesOnCorruption) {
  mr::LocalDfs dfs = OpenDfs();
  infer::PersistentEmbeddingStore::Options opts;
  opts.model_version = 42;

  const infer::CacheKey k1{1, 1, 42}, k2{2, 1, 42};
  const std::vector<float> v1 = {1.f, 2.f}, v2 = {3.f, 4.f};
  {
    auto store = infer::PersistentEmbeddingStore::Open(&dfs, "emb", opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE((*store)->opened_warm());
    (*store)->Insert(k1, v1);
    (*store)->Insert(k2, v2);
    ASSERT_TRUE((*store)->Publish().ok());
  }
  {
    // Same process-independent state: re-open from the published index.
    auto dfs2 = mr::LocalDfs::Open(root_);
    ASSERT_TRUE(dfs2.ok());
    auto store = infer::PersistentEmbeddingStore::Open(&*dfs2, "emb", opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->opened_warm());
    std::vector<float> out;
    ASSERT_TRUE((*store)->Lookup(k1, &out));
    EXPECT_EQ(out, v1);
    ASSERT_TRUE((*store)->Lookup(k2, &out));
    EXPECT_EQ(out, v2);
    EXPECT_GT((*store)->stats().spill_hits, 0);

    // A torn tail past the published prefix is dropped on re-open.
    (*store)->Insert({3, 1, 42}, {9.f});
  }
  {
    std::FILE* f = std::fopen((root_ + "/emb.spill").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("torn-tail-garbage", f);
    std::fclose(f);
    auto dfs3 = mr::LocalDfs::Open(root_);
    ASSERT_TRUE(dfs3.ok());
    auto store = infer::PersistentEmbeddingStore::Open(&*dfs3, "emb", opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->opened_warm());
    std::vector<float> out;
    EXPECT_TRUE((*store)->Lookup(k1, &out));
    // The unpublished insert died with the torn tail.
    EXPECT_FALSE((*store)->Lookup({3, 1, 42}, &out));
  }
  {
    // A different model version discards the snapshot wholesale.
    auto dfs4 = mr::LocalDfs::Open(root_);
    ASSERT_TRUE(dfs4.ok());
    infer::PersistentEmbeddingStore::Options other = opts;
    other.model_version = 43;
    auto store = infer::PersistentEmbeddingStore::Open(&*dfs4, "emb", other);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE((*store)->opened_warm());
  }
}

TEST_F(ServeTest, RestartedServiceServesWarmHitsWithSameBytes) {
  data::Dataset ds = SmallUug(50);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();
  const std::vector<flat::NodeId> all = AllIds(ds);

  ServeConfig config;
  config.infer.model = mconfig;
  config.infer.batch_slices = 2;

  InferenceService::Scores first;
  {
    mr::LocalDfs dfs = OpenDfs();
    auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    EXPECT_FALSE((*svc)->stats().opened_warm);
    auto scores = (*svc)->Score(all);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    first = *scores;
    ASSERT_TRUE((*svc)->Persist().ok());
    // Destructor shutdown = the process dying after its durability point.
  }
  {
    mr::LocalDfs dfs = OpenDfs();  // fresh "process": re-opens the root
    auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    EXPECT_TRUE((*svc)->stats().opened_warm);
    auto scores = (*svc)->Score(all);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    ExpectScoresIdentical(*scores, first, "restarted service");
    const ServeStats stats = (*svc)->stats();
    EXPECT_GT(stats.store.hits, 0) << "restart served no warm hits";
    EXPECT_GT(stats.store.spill_hits, 0);
  }
}

// A store persisted AFTER mutations describes the mutated graph; an
// incarnation restarted with the ORIGINAL tables (the exact `agl_cli serve`
// re-run shape) must not serve those embeddings — it starts cold and its
// scores match cold inference over the tables it was actually given.
TEST_F(ServeTest, StoreReopenAgainstDifferentGraphStartsCold) {
  data::Dataset ds = SmallUug(50);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();
  const std::vector<flat::NodeId> all = AllIds(ds);

  ServeConfig config;
  config.infer.model = mconfig;
  config.infer.batch_slices = 2;

  const Mutation remove = [&] {
    auto m = Mutation::Parse("remove-edge " + std::to_string(ds.edges[0].src) +
                             " " + std::to_string(ds.edges[0].dst));
    return *m;
  }();
  std::vector<flat::NodeRecord> post_nodes = ds.nodes;
  std::vector<flat::EdgeRecord> post_edges = ds.edges;
  ASSERT_TRUE(ApplyMutation(remove, &post_nodes, &post_edges).ok());

  {
    mr::LocalDfs dfs = OpenDfs();
    auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    ASSERT_TRUE((*svc)->Score(all).ok());
    ASSERT_TRUE((*svc)->ApplyMutations({remove}).ok());
    ASSERT_TRUE((*svc)->Score(all).ok());
    ASSERT_TRUE((*svc)->Persist().ok());  // index pinned to the POST graph
  }
  {
    // Restart with the pre-mutation tables: graph fingerprint mismatch.
    mr::LocalDfs dfs = OpenDfs();
    auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    EXPECT_FALSE((*svc)->stats().opened_warm)
        << "stale store served against a different graph";
    auto scores = (*svc)->Score(all);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    ExpectScoresIdentical(
        *scores, ColdScores(config.infer, state, ds.nodes, ds.edges, all),
        "restart with pre-mutation tables");
  }
  {
    // Restart with the post-mutation tables: fingerprints match, warm.
    mr::LocalDfs dfs = OpenDfs();
    auto svc = agl::Run(config, state, post_nodes, post_edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    EXPECT_TRUE((*svc)->stats().opened_warm);
    auto scores = (*svc)->Score(all);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    ExpectScoresIdentical(
        *scores, ColdScores(config.infer, state, post_nodes, post_edges, all),
        "restart with post-mutation tables");
    EXPECT_GT((*svc)->stats().store.hits, 0);
  }
}

// --- mutations ------------------------------------------------------------

class ServeMutationTest
    : public ServeTest,
      public ::testing::WithParamInterface<gnn::ModelType> {};

TEST_P(ServeMutationTest, MutationStreamKeepsServingByteIdenticalToCold) {
  const gnn::ModelType type = GetParam();
  data::Dataset ds = SmallUug(50);
  gnn::ModelConfig mconfig = SmallModel(type, 2, ds.feature_dim);
  gnn::GnnModel model(mconfig);
  const auto state = model.StateDict();
  const std::vector<flat::NodeId> all = AllIds(ds);
  mr::LocalDfs dfs = OpenDfs();

  // Flatten the dataset the service will keep fresh.
  flat::GraphFlatConfig fconfig;
  fconfig.hops = 2;
  fconfig.targets = flat::GraphFlatConfig::Targets::kLabeledNodes;
  ASSERT_TRUE(agl::Run(fconfig, ds.nodes, ds.edges, &dfs, "features").ok());

  ServeConfig config;
  config.infer.model = mconfig;
  config.infer.batch_slices = 3;
  config.features_dataset = "features";
  config.flat = fconfig;
  auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  InferenceService& service = **svc;

  // Warm the store on the pre-mutation graph.
  auto before = service.Score(all);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // A batch touching all three mutation kinds, built from the generated
  // table (drop an existing edge, add a currently-absent one).
  std::set<std::pair<flat::NodeId, flat::NodeId>> present;
  for (const auto& e : ds.edges) present.insert({e.src, e.dst});
  std::pair<flat::NodeId, flat::NodeId> absent{0, 0};
  for (const auto& n : ds.nodes) {
    if (n.id != 0 && !present.count({0, n.id})) {
      absent = {0, n.id};
      break;
    }
  }
  ASSERT_NE(absent.second, 0u) << "node 0 connected to everything?";
  std::vector<Mutation> batch;
  batch.push_back(*Mutation::Parse(
      "remove-edge " + std::to_string(ds.edges[0].src) + " " +
      std::to_string(ds.edges[0].dst)));
  batch.push_back(*Mutation::Parse("add-edge " +
                                   std::to_string(absent.first) + " " +
                                   std::to_string(absent.second) + " 2"));
  batch.push_back(*Mutation::Parse("update-features 3 9,8,7,6,5,4"));
  ASSERT_TRUE(service.ApplyMutations(batch).ok());

  // Mutate a reference copy of the tables the same way.
  std::vector<flat::NodeRecord> nodes = ds.nodes;
  std::vector<flat::EdgeRecord> edges = ds.edges;
  for (const Mutation& m : batch) {
    ASSERT_TRUE(ApplyMutation(m, &nodes, &edges).ok());
  }

  // Served scores == cold offline run over the mutated graph, byte for
  // byte — the invalidation was exact.
  auto after = service.Score(all);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectScoresIdentical(
      *after, ColdScores(config.infer, state, nodes, edges, all),
      std::string("post-mutation ") + gnn::ModelTypeName(type));

  // ...and not vacuously: the mutations really moved some scores.
  bool changed = false;
  for (std::size_t i = 0; i < before->size(); ++i) {
    if ((*before)[i].second != (*after)[i].second) changed = true;
  }
  EXPECT_TRUE(changed) << "mutations did not affect any served score";

  // The maintained dataset is byte-identical to a cold re-flatten of the
  // mutated tables (same part structure included).
  ASSERT_TRUE(agl::Run(fconfig, nodes, edges, &dfs, "features_cold").ok());
  auto incremental = dfs.ReadDataset("features");
  auto cold = dfs.ReadDataset("features_cold");
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(*incremental, *cold);

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.mutation_batches, 1);
  EXPECT_EQ(stats.mutations_applied, 3);
  EXPECT_GT(stats.invalidated_nodes, 0);
  EXPECT_EQ(stats.reflatten_runs, 1);
  EXPECT_GT(stats.reflatten_dirty_targets, 0);

  // A failing batch rolls back wholesale: nothing applied, nothing
  // invalidated, scores unmoved.
  const ServeStats pre_fail = service.stats();
  std::vector<Mutation> doomed;
  doomed.push_back(*Mutation::Parse(
      "remove-edge " + std::to_string(absent.first) + " " +
      std::to_string(absent.second)));
  doomed.push_back(*Mutation::Parse("add-edge 0 424242 1"));
  EXPECT_EQ(service.ApplyMutations(doomed).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.stats().mutation_batches, pre_fail.mutation_batches);
  auto unmoved = service.Score(all);
  ASSERT_TRUE(unmoved.ok());
  ExpectScoresIdentical(*unmoved, *after, "rollback left the graph alone");
}

INSTANTIATE_TEST_SUITE_P(AllModels, ServeMutationTest,
                         ::testing::Values(gnn::ModelType::kGcn,
                                           gnn::ModelType::kGraphSage,
                                           gnn::ModelType::kGat),
                         [](const auto& info) {
                           return gnn::ModelTypeName(info.param);
                         });

}  // namespace
}  // namespace agl::serve
