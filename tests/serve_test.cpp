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
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
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

TEST(MutationTest, ParseRejectsMalformedNumbers) {
  for (const char* line :
       {"remove-edge -1 2", "remove-edge 99999999999999999999999 2",
        "remove-edge 1 2x", "update-features +4 1,2",
        "update-features 4 1,2,", "update-features 4 ,1",
        "update-features 4 1,,2", "update-features 4 1,2x",
        "add-edge 1 2 1e99", "add-edge 1 2 w", "add-edge 1 2 1 0.5,",
        "add-edge 0x1 2 1"}) {
    EXPECT_EQ(Mutation::Parse(line).status().code(),
              StatusCode::kInvalidArgument)
        << line;
  }
  auto ok = Mutation::Parse("update-features 4 -1.5,2e-3");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->features, (std::vector<float>{-1.5f, 2e-3f}));
}

/// Nodes 1..n with one-wide feature rows.
std::vector<flat::NodeRecord> NodesUpTo(flat::NodeId n) {
  std::vector<flat::NodeRecord> nodes;
  for (flat::NodeId id = 1; id <= n; ++id) nodes.push_back({id, {0.f}, -1, {}});
  return nodes;
}

TEST(MutationTest, DirtySeedsAreModelAware) {
  // Chain 1 -> 2 -> 3 plus 2 -> 4 (so outN(2) = {3, 4}).
  flat::TableGraph graph(NodesUpTo(5),
                         {{1, 2, 1.f, {}}, {2, 3, 1.f, {}}, {2, 4, 1.f, {}}});
  const Mutation add = *Mutation::Parse("add-edge 2 5 1");
  ASSERT_TRUE(ApplyMutation(add, &graph).ok());

  // Row-normalized models: only the destination's gather row changes.
  DirtySeeds sage =
      ComputeDirtySeeds(gnn::ModelType::kGraphSage, {add}, graph);
  EXPECT_EQ(sage.dataset_seeds, (std::vector<flat::NodeId>{5}));
  EXPECT_EQ(sage.cache_seeds,
            (std::vector<std::pair<flat::NodeId, int>>{{5, 1}}));

  // GCN: col_deg(2) changes, so rows {2} + outN(2) join the dst.
  DirtySeeds gcn = ComputeDirtySeeds(gnn::ModelType::kGcn, {add}, graph);
  EXPECT_EQ(gcn.dataset_seeds, (std::vector<flat::NodeId>{5}));
  EXPECT_EQ(gcn.cache_seeds, (std::vector<std::pair<flat::NodeId, int>>{
                                 {2, 1}, {3, 1}, {4, 1}, {5, 1}}));

  // A feature update seeds the node itself at base round 0.
  const Mutation feat = *Mutation::Parse("update-features 1 9");
  DirtySeeds f = ComputeDirtySeeds(gnn::ModelType::kGcn, {feat}, graph);
  EXPECT_EQ(f.cache_seeds,
            (std::vector<std::pair<flat::NodeId, int>>{{1, 0}}));

  // GCN removal: outN(2) after the batch is {4, 5}; the removed edge's
  // dst, 3, is a seed of its own.
  const Mutation remove = *Mutation::Parse("remove-edge 2 3");
  ASSERT_TRUE(ApplyMutation(remove, &graph).ok());
  DirtySeeds gone = ComputeDirtySeeds(gnn::ModelType::kGcn, {remove}, graph);
  EXPECT_EQ(gone.cache_seeds, (std::vector<std::pair<flat::NodeId, int>>{
                                  {2, 1}, {3, 1}, {4, 1}, {5, 1}}));
}

// Published store indexes carry GraphFingerprint values, so a changed
// definition would silently start every restarted replica cold. Pinned to
// the values the definition has always produced, and to the same value in
// any row order.
TEST(MutationTest, GraphFingerprintValuesArePinned) {
  std::vector<flat::NodeRecord> nodes = {{1, {0.5f, -1.f}, 0, {}},
                                         {2, {2.f, 3.f}, -1, {1.f, 0.f}},
                                         {7, {0.f, 0.25f}, 1, {}}};
  std::vector<flat::EdgeRecord> edges = {
      {1, 2, 1.f, {}}, {2, 7, 0.5f, {0.75f}}, {7, 1, 2.f, {}}};
  EXPECT_EQ(GraphFingerprint(nodes, edges), 0x209e390e190c0d1eULL);
  EXPECT_EQ(GraphFingerprint({}, {}), 0x9ae16a3b2f90404fULL);
  std::reverse(nodes.begin(), nodes.end());
  std::rotate(edges.begin(), edges.begin() + 1, edges.end());
  EXPECT_EQ(GraphFingerprint(nodes, edges), 0x209e390e190c0d1eULL);
}

TEST(MutationTest, PropagationFloorsFollowOutEdgeDistance) {
  // 1 -> 2 -> 3 -> 4, K = 2.
  const flat::TableGraph graph(
      NodesUpTo(4), {{1, 2, 1.f, {}}, {2, 3, 1.f, {}}, {3, 4, 1.f, {}}});
  // Feature update at 1 (base 0): floor 1 at node 1, 1 at node 2 (its
  // round-1 embedding aggregates 1's features), 2 at node 3; node 4 is 3
  // hops out — beyond every cached round, so it is absent.
  auto floors = PropagateInvalidations({{1, 0}}, graph, 2);
  EXPECT_EQ(floors, (std::vector<std::pair<flat::NodeId, int32_t>>{
                        {1, 1}, {2, 1}, {3, 2}}));
  // Edge mutation dirtying row 2 (base 1): node 2 from round 1, node 3
  // from round 2; node 4 would start at round 3 > K.
  floors = PropagateInvalidations({{2, 1}}, graph, 2);
  EXPECT_EQ(floors, (std::vector<std::pair<flat::NodeId, int32_t>>{
                        {2, 1}, {3, 2}}));
}

// --- TableGraph properties ------------------------------------------------

std::map<flat::NodeId, int> Ordered(
    const std::unordered_map<flat::NodeId, int>& levels) {
  return {levels.begin(), levels.end()};
}

/// Brute-force oracle for TableGraph::Levels: Bellman-Ford relaxation of
/// min(base + dist) over every table edge.
std::map<flat::NodeId, int> OracleLevels(
    const std::vector<flat::EdgeRecord>& edges,
    const std::vector<std::pair<flat::NodeId, int>>& seeds,
    flat::TableGraph::Direction dir, int max_level) {
  std::map<flat::NodeId, int> level;
  for (const auto& [id, base] : seeds) {
    if (base < 0 || base > max_level) continue;
    auto [it, inserted] = level.emplace(id, base);
    if (!inserted) it->second = std::min(it->second, base);
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const flat::EdgeRecord& e : edges) {
      const bool in = dir == flat::TableGraph::Direction::kIn;
      const flat::NodeId from = in ? e.dst : e.src;
      const flat::NodeId to = in ? e.src : e.dst;
      auto it = level.find(from);
      if (it == level.end() || it->second + 1 > max_level) continue;
      auto [jt, inserted] = level.emplace(to, it->second + 1);
      if (inserted || it->second + 1 < jt->second) {
        jt->second = it->second + 1;
        changed = true;
      }
    }
  }
  return level;
}

/// The index must equal one rebuilt from its own tables: same row map and,
/// per node, the same in/out edge rows as multisets.
void ExpectIndexMatchesRebuild(const flat::TableGraph& graph,
                               flat::NodeId max_id) {
  const flat::TableGraph rebuilt(graph.nodes(), graph.edges());
  for (flat::NodeId id = 0; id <= max_id; ++id) {
    ASSERT_EQ(graph.NodeRow(id), rebuilt.NodeRow(id)) << "node " << id;
    for (auto dir : {flat::TableGraph::Direction::kIn,
                     flat::TableGraph::Direction::kOut}) {
      std::vector<std::size_t> got = graph.Adjacent(id, dir);
      std::vector<std::size_t> want = rebuilt.Adjacent(id, dir);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "node " << id;
    }
  }
}

TEST(TableGraphTest, RandomMutationsKeepIndexAndLevelsExact) {
  constexpr flat::NodeId kNodes = 24;
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&](flat::NodeId n) {
      return static_cast<flat::NodeId>(rng() % n);
    };
    std::vector<flat::NodeRecord> nodes;
    for (flat::NodeId id = 0; id < kNodes; ++id) {
      nodes.push_back({id, {static_cast<float>(id), 1.f}, -1, {}});
    }
    std::set<std::pair<flat::NodeId, flat::NodeId>> present;
    std::vector<flat::EdgeRecord> edges;
    for (int i = 0; i < 50; ++i) {
      const flat::NodeId src = pick(kNodes), dst = pick(kNodes);
      if (present.insert({src, dst}).second) {
        edges.push_back({src, dst, 1.f + static_cast<float>(i), {}});
      }
    }
    flat::TableGraph graph(nodes, edges);
    // The reference model the graph's tables must match as multisets.
    std::map<std::pair<flat::NodeId, flat::NodeId>, float> model_edges;
    for (const auto& e : edges) model_edges[{e.src, e.dst}] = e.weight;
    std::map<flat::NodeId, std::vector<float>> model_rows;
    for (const auto& n : nodes) model_rows[n.id] = n.features;
    RunningFingerprint fingerprint(nodes, edges);

    for (int step = 0; step < 60; ++step) {
      // A batch of 1-4 mutations; some fail (absent edge, duplicate,
      // unknown node, wrong width) and roll the batch back, and some
      // successful batches are rolled back on purpose.
      std::vector<Mutation> batch;
      const int size = 1 + static_cast<int>(rng() % 4);
      for (int k = 0; k < size; ++k) {
        Mutation m;
        const flat::NodeId a = pick(kNodes + 2), b = pick(kNodes);
        switch (rng() % 3) {
          case 0:
            m.type = Mutation::Type::kAddEdge;
            m.edge = {a, b, 0.5f + static_cast<float>(step), {}};
            break;
          case 1: {
            m.type = Mutation::Type::kRemoveEdge;
            if (!model_edges.empty() && rng() % 4 != 0) {
              auto it = model_edges.begin();
              std::advance(it, rng() % model_edges.size());
              m.edge.src = it->first.first;
              m.edge.dst = it->first.second;
            } else {
              m.edge = {a, b, 1.f, {}};
            }
            break;
          }
          default:
            m.type = Mutation::Type::kUpdateFeatures;
            m.node = a;
            m.features.assign(rng() % 8 == 0 ? 3 : 2,
                              static_cast<float>(step));
            break;
        }
        batch.push_back(m);
      }
      const std::vector<flat::EdgeRecord> pre_edges = graph.edges();
      std::vector<Mutation> undo;
      bool failed = false;
      for (const Mutation& m : batch) {
        auto inverse = ApplyMutation(m, &graph);
        if (!inverse.ok()) {
          failed = true;
          break;
        }
        undo.push_back(*inverse);
      }
      if (failed || rng() % 5 == 0) {
        for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
          UndoMutation(*it, &graph);
        }
      } else {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          fingerprint.Apply(batch[i], undo[i], graph);
        }
        for (const Mutation& m : batch) {
          if (m.type == Mutation::Type::kAddEdge) {
            model_edges[{m.edge.src, m.edge.dst}] = m.edge.weight;
          } else if (m.type == Mutation::Type::kRemoveEdge) {
            model_edges.erase({m.edge.src, m.edge.dst});
          } else {
            model_rows[m.node] = m.features;
          }
        }
      }

      // Tables == the reference model; node rows never moved.
      std::map<std::pair<flat::NodeId, flat::NodeId>, float> got_edges;
      for (const auto& e : graph.edges()) {
        ASSERT_TRUE(got_edges.emplace(std::pair{e.src, e.dst}, e.weight)
                        .second);
      }
      ASSERT_EQ(got_edges, model_edges) << "seed " << seed << " step " << step;
      ASSERT_EQ(graph.nodes().size(), static_cast<std::size_t>(kNodes));
      for (flat::NodeId id = 0; id < kNodes; ++id) {
        ASSERT_EQ(graph.nodes()[id].id, id);
        ASSERT_EQ(graph.nodes()[id].features, model_rows[id]);
      }
      ExpectIndexMatchesRebuild(graph, kNodes + 2);
      // The maintained fingerprint == the full recompute; a rolled-back
      // batch left both the tables and it untouched.
      ASSERT_EQ(fingerprint.value(),
                GraphFingerprint(graph.nodes(), graph.edges()))
          << "seed " << seed << " step " << step;

      // Levels == the brute-force oracle, both directions, mixed 0/1
      // bases.
      std::vector<std::pair<flat::NodeId, int>> seeds;
      for (int k = 0; k < 3; ++k) {
        seeds.emplace_back(pick(kNodes + 2), static_cast<int>(rng() % 2));
      }
      for (auto dir : {flat::TableGraph::Direction::kIn,
                       flat::TableGraph::Direction::kOut}) {
        for (int max_level = 0; max_level <= 3; ++max_level) {
          ASSERT_EQ(Ordered(graph.Levels(seeds, dir, max_level)),
                    OracleLevels(graph.edges(), seeds, dir, max_level))
              << "seed " << seed << " step " << step;
        }
      }

      // An applied batch's seeds, floors and dataset closure over the post
      // graph alone equal those over the union of the pre- and
      // post-mutation tables.
      if (failed || undo.empty() || graph.edges() == pre_edges) continue;
      std::vector<flat::EdgeRecord> both = pre_edges;
      both.insert(both.end(), graph.edges().begin(), graph.edges().end());
      const flat::TableGraph joined(graph.nodes(), both);
      for (auto type : {gnn::ModelType::kGcn, gnn::ModelType::kGraphSage}) {
        const DirtySeeds post = ComputeDirtySeeds(type, batch, graph);
        const DirtySeeds pre_post = ComputeDirtySeeds(type, batch, joined);
        ASSERT_EQ(post.dataset_seeds, pre_post.dataset_seeds);
        ASSERT_EQ(post.cache_seeds, pre_post.cache_seeds);
        ASSERT_EQ(PropagateInvalidations(post.cache_seeds, graph, 2),
                  PropagateInvalidations(post.cache_seeds, joined, 2));
        std::vector<std::pair<flat::NodeId, int>> starts;
        for (flat::NodeId id : post.dataset_seeds) starts.emplace_back(id, 0);
        const auto out = flat::TableGraph::Direction::kOut;
        ASSERT_EQ(Ordered(graph.Levels(starts, out, 2)),
                  Ordered(joined.Levels(starts, out, 2)));
      }
    }
  }
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

// A repeated read of stored targets is a store read: one lookup per
// target (its round-K pair), no evaluation, the same bytes.
TEST_F(ServeTest, WarmRepeatedReadRunsNoEvaluation) {
  data::Dataset ds = SmallUug(60);
  const std::vector<flat::NodeId> all = AllIds(ds);
  const std::vector<flat::NodeId> targets = {all[2], all[11], all[40]};
  for (gnn::ModelType type :
       {gnn::ModelType::kGraphSage, gnn::ModelType::kGat}) {
    SCOPED_TRACE(gnn::ModelTypeName(type));
    std::filesystem::remove_all(root_);
    mr::LocalDfs dfs = OpenDfs();
    gnn::ModelConfig mconfig = SmallModel(type, 2, ds.feature_dim);
    const auto state = gnn::GnnModel(mconfig).StateDict();
    ServeConfig config;
    config.infer.model = mconfig;
    auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    InferenceService& service = **svc;
    const InferenceService::Scores cold =
        ColdScores(config.infer, state, ds.nodes, ds.edges, targets);

    auto first = service.Score(targets);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ExpectScoresIdentical(*first, cold, "first read");
    const ServeStats after_first = service.stats();
    EXPECT_GT(after_first.embedding_evaluations, 0);
    EXPECT_EQ(after_first.store_lookups,
              after_first.store.hits + after_first.store.misses);

    auto again = service.Score(targets);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectScoresIdentical(*again, cold, "repeated read");
    const ServeStats after_again = service.stats();
    EXPECT_EQ(after_again.embedding_evaluations,
              after_first.embedding_evaluations);
    EXPECT_EQ(after_again.store_lookups - after_first.store_lookups,
              static_cast<int64_t>(targets.size()));
    EXPECT_EQ(after_again.store.hits - after_first.store.hits,
              static_cast<int64_t>(targets.size()));
  }
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

// The AGLESTORE2 index is input from disk: every truncation of the record
// list, every truncation of each record and every single-bit flip of each
// record (re-published with valid checksums, so the parser sees it) must
// open OK, warm or cold, without growing the spill file. Every Lookup then
// misses or returns the published bytes, and Invalidate — whose probes
// come from the restored keys' versions and rounds — drops exactly what
// it names and returns.
TEST_F(ServeTest, HostileStoreIndexDegradesToMissNeverToWrongBytes) {
  infer::PersistentEmbeddingStore::Options opts;
  opts.model_version = 42;
  opts.graph_version = 9;
  const std::vector<std::pair<infer::CacheKey, std::vector<float>>>
      published = {{{1, 1, 42}, {1.f, 2.f}},
                   {{1, 2, 42}, {3.f}},
                   {{2, 1, 42}, {4.f, 5.f, 6.f}}};
  mr::LocalDfs dfs = OpenDfs();
  {
    auto store = infer::PersistentEmbeddingStore::Open(&dfs, "emb", opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const auto& [key, value] : published) (*store)->Insert(key, value);
    ASSERT_TRUE((*store)->Publish().ok());
  }
  const std::string spill_path = root_ + "/emb.spill";
  std::string spill;
  {
    std::ifstream in(spill_path, std::ios::binary);
    spill.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto index = dfs.ReadDataset("emb.index");
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_EQ(index->size(), published.size() + 1);

  std::vector<std::vector<std::string>> variants;
  for (std::size_t n = 0; n < index->size(); ++n) {
    variants.emplace_back(index->begin(), index->begin() + n);
  }
  for (std::size_t i = 0; i < index->size(); ++i) {
    const std::string& record = (*index)[i];
    for (std::size_t len = 0; len < record.size(); ++len) {
      variants.push_back(*index);
      variants.back()[i].resize(len);
    }
    for (std::size_t bit = 0; bit < record.size() * 8; ++bit) {
      variants.push_back(*index);
      variants.back()[i][bit / 8] ^= static_cast<char>(1 << (bit % 8));
    }
  }
  int warm = 0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const std::string what = "variant " + std::to_string(v);
    {
      std::ofstream out(spill_path, std::ios::binary | std::ios::trunc);
      out << spill;
    }
    ASSERT_TRUE(dfs.WriteDataset("emb.index", variants[v]).ok()) << what;
    auto store = infer::PersistentEmbeddingStore::Open(&dfs, "emb", opts);
    ASSERT_TRUE(store.ok()) << what << ": " << store.status().ToString();
    warm += (*store)->opened_warm() ? 1 : 0;
    EXPECT_LE(std::filesystem::file_size(spill_path), spill.size()) << what;
    std::vector<bool> hit(published.size());
    for (std::size_t k = 0; k < published.size(); ++k) {
      std::vector<float> out;
      hit[k] = (*store)->Lookup(published[k].first, &out);
      if (hit[k]) {
        EXPECT_EQ(out, published[k].second) << what;
      }
    }
    // Drops (1, round >= 2) only.
    (*store)->Invalidate(1, 2);
    for (std::size_t k = 0; k < published.size(); ++k) {
      const infer::CacheKey& key = published[k].first;
      const bool dropped = key.node == 1 && key.round >= 2;
      std::vector<float> out;
      EXPECT_EQ((*store)->Lookup(key, &out), hit[k] && !dropped)
          << what << " key " << key.node << "/" << key.round;
    }
  }
  // The unflipped prefix-free fields leave some variants warm.
  EXPECT_GT(warm, 0);
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

  // The fingerprint the service maintains per mutation stamps the same
  // value a full recompute over the mutated tables gives, also after a
  // failed batch was rolled back: a restart against tables mutated
  // offline opens warm.
  std::set<std::pair<flat::NodeId, flat::NodeId>> present;
  for (const auto& e : ds.edges) present.insert({e.src, e.dst});
  Mutation add;
  add.type = Mutation::Type::kAddEdge;
  add.edge = {ds.nodes[1].id, ds.nodes[2].id, 0.75f, ds.edges[0].features};
  for (const auto& n : ds.nodes) {
    if (n.id != add.edge.src && !present.count({add.edge.src, n.id})) {
      add.edge.dst = n.id;
      break;
    }
  }
  ASSERT_FALSE(present.count({add.edge.src, add.edge.dst}));
  Mutation update;
  update.type = Mutation::Type::kUpdateFeatures;
  update.node = ds.nodes[3].id;
  update.features.assign(ds.nodes[3].features.size(), 0.5f);
  std::vector<flat::NodeRecord> mutated_nodes = ds.nodes;
  std::vector<flat::EdgeRecord> mutated_edges = ds.edges;
  ASSERT_TRUE(ApplyMutation(add, &mutated_nodes, &mutated_edges).ok());
  ASSERT_TRUE(ApplyMutation(update, &mutated_nodes, &mutated_edges).ok());
  {
    mr::LocalDfs dfs = OpenDfs();
    auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    ASSERT_TRUE((*svc)->Score(all).ok());
    ASSERT_TRUE((*svc)->ApplyMutations({add, update}).ok());
    const Mutation absent = *Mutation::Parse(
        "remove-edge " + std::to_string(add.edge.dst) + " " +
        std::to_string(add.edge.dst));
    ASSERT_FALSE(present.count({add.edge.dst, add.edge.dst}));
    EXPECT_EQ((*svc)->ApplyMutations({remove, absent}).code(),
              StatusCode::kNotFound);
    ASSERT_TRUE((*svc)->Score(all).ok());
    ASSERT_TRUE((*svc)->Persist().ok());
  }
  {
    mr::LocalDfs dfs = OpenDfs();
    auto svc =
        agl::Run(config, state, mutated_nodes, mutated_edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    EXPECT_TRUE((*svc)->stats().opened_warm)
        << "maintained fingerprint differs from the full recompute";
    auto scores = (*svc)->Score(all);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    ExpectScoresIdentical(
        *scores,
        ColdScores(config.infer, state, mutated_nodes, mutated_edges, all),
        "restart with offline-mutated tables");
    EXPECT_GT((*svc)->stats().store.hits, 0);
  }
}

// A rollback restores every edge the batch removed, also ones the strict
// mutators would never admit: an edge into an id outside the node table
// and an edge with a ragged feature width (removing row 0 swap-moves it
// there, the row AddEdge's width check reads). The batch keeps its own
// error and the service keeps serving the pre-batch tables.
TEST_F(ServeTest, RollbackRestoresEdgesTheMutatorsWouldRefuse) {
  data::Dataset ds = SmallUug(20);
  gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
  const auto state = gnn::GnnModel(mconfig).StateDict();
  const std::vector<flat::NodeId> all = AllIds(ds);
  mr::LocalDfs dfs = OpenDfs();
  std::set<std::pair<flat::NodeId, flat::NodeId>> present;
  for (const auto& e : ds.edges) present.insert({e.src, e.dst});
  flat::EdgeRecord ragged{0, 0, 0.5f, ds.edges[0].features};
  ragged.features.push_back(0.25f);
  for (const auto& n : ds.nodes) {
    if (n.id != 0 && !present.count({0, n.id})) {
      ragged.dst = n.id;
      break;
    }
  }
  ASSERT_NE(ragged.dst, 0u);
  std::vector<flat::EdgeRecord> edges = ds.edges;
  edges.push_back({0, 777, 1.f, ds.edges[0].features});
  edges.push_back(ragged);
  ServeConfig config;
  config.infer.model = mconfig;
  auto svc = agl::Run(config, state, ds.nodes, edges, &dfs);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  InferenceService& service = **svc;

  const std::string first = "remove-edge " + std::to_string(edges[0].src) +
                            " " + std::to_string(edges[0].dst);
  const std::string third = "remove-edge 0 " + std::to_string(ragged.dst);
  EXPECT_EQ(service
                .ApplyMutations({*Mutation::Parse(first),
                                 *Mutation::Parse("remove-edge 0 777"),
                                 *Mutation::Parse(third),
                                 *Mutation::Parse("add-edge 0 424242 1")})
                .code(),
            StatusCode::kNotFound);
  auto scores = service.Score(all);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ExpectScoresIdentical(
      *scores, ColdScores(config.infer, state, ds.nodes, edges, all),
      "after rollback");
  // All three edges are back: the same removals now succeed.
  EXPECT_TRUE(service
                  .ApplyMutations({*Mutation::Parse(first),
                                   *Mutation::Parse("remove-edge 0 777"),
                                   *Mutation::Parse(third)})
                  .ok());
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

// A batch that fails after a successful remove-edge and update-features
// rolls back by inverses; the service must then keep serving exactly. The
// next batch adds and removes the same edge (an edge in neither table)
// and removes an edge whose source keeps other out-neighbours (GCN reads
// that source's out-row before and after).
TEST_P(ServeMutationTest, RollbackThenNextBatchStaysByteIdenticalToCold) {
  const gnn::ModelType type = GetParam();
  data::Dataset ds = SmallUug(50);
  gnn::ModelConfig mconfig = SmallModel(type, 2, ds.feature_dim);
  const auto state = gnn::GnnModel(mconfig).StateDict();
  const std::vector<flat::NodeId> all = AllIds(ds);
  mr::LocalDfs dfs = OpenDfs();

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
  ASSERT_TRUE(service.Score(all).ok());

  auto edge_line = [](const char* op, flat::NodeId src, flat::NodeId dst) {
    return *Mutation::Parse(std::string(op) + " " + std::to_string(src) +
                            " " + std::to_string(dst) +
                            (op[0] == 'a' ? " 2" : ""));
  };
  std::map<flat::NodeId, int> out_degree;
  std::set<std::pair<flat::NodeId, flat::NodeId>> present;
  for (const auto& e : ds.edges) {
    ++out_degree[e.src];
    present.insert({e.src, e.dst});
  }
  const flat::EdgeRecord* fanout = nullptr;
  for (const auto& e : ds.edges) {
    if (out_degree[e.src] >= 2 && &e != &ds.edges[0]) {
      fanout = &e;
      break;
    }
  }
  ASSERT_NE(fanout, nullptr);
  std::pair<flat::NodeId, flat::NodeId> absent{1, 1};
  for (const auto& n : ds.nodes) {
    if (n.id != 1 && !present.count({1, n.id})) {
      absent = {1, n.id};
      break;
    }
  }
  ASSERT_NE(absent.second, 1u);

  std::vector<Mutation> doomed = {
      edge_line("remove-edge", ds.edges[0].src, ds.edges[0].dst),
      *Mutation::Parse("update-features 3 9,8,7,6,5,4"),
      *Mutation::Parse("add-edge 0 424242 1")};
  EXPECT_EQ(service.ApplyMutations(doomed).code(), StatusCode::kNotFound);
  auto unmoved = service.Score(all);
  ASSERT_TRUE(unmoved.ok());
  ExpectScoresIdentical(
      *unmoved, ColdScores(config.infer, state, ds.nodes, ds.edges, all),
      "after rollback");

  const std::vector<Mutation> batch = {
      edge_line("add-edge", absent.first, absent.second),
      edge_line("remove-edge", absent.first, absent.second),
      edge_line("remove-edge", fanout->src, fanout->dst),
      *Mutation::Parse("update-features 5 1,2,3,4,5,6")};
  ASSERT_TRUE(service.ApplyMutations(batch).ok());
  std::vector<flat::NodeRecord> nodes = ds.nodes;
  std::vector<flat::EdgeRecord> edges = ds.edges;
  for (const Mutation& m : batch) {
    ASSERT_TRUE(ApplyMutation(m, &nodes, &edges).ok());
  }
  auto served = service.Score(all);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectScoresIdentical(*served,
                        ColdScores(config.infer, state, nodes, edges, all),
                        std::string("after the next batch ") +
                            gnn::ModelTypeName(type));

  ASSERT_TRUE(agl::Run(fconfig, nodes, edges, &dfs, "features_cold").ok());
  auto incremental = dfs.ReadDataset("features");
  auto cold = dfs.ReadDataset("features_cold");
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(*incremental, *cold);
  EXPECT_EQ(service.stats().mutation_batches, 1);
}

// No output depends on edge row order. RemoveEdge swap-removes, and the
// cold references above reorder rows the same way, so they cannot see an
// order dependence; here the reference keeps table order. Shuffled edge
// rows give the same GraphFlat bytes and batched scores, and a service
// started on them and then mutated serves what a cold run over the
// order-preserving mutated tables gives.
TEST_P(ServeMutationTest, EdgeRowOrderReachesNoOutput) {
  const gnn::ModelType type = GetParam();
  data::Dataset ds = SmallUug(120);
  gnn::ModelConfig mconfig = SmallModel(type, 2, ds.feature_dim);
  const auto state = gnn::GnnModel(mconfig).StateDict();
  const std::vector<flat::NodeId> all = AllIds(ds);
  mr::LocalDfs dfs = OpenDfs();
  std::vector<flat::EdgeRecord> shuffled = ds.edges;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
  ASSERT_FALSE(shuffled == ds.edges);

  flat::GraphFlatConfig fconfig;
  fconfig.hops = 2;
  fconfig.targets = flat::GraphFlatConfig::Targets::kLabeledNodes;
  ASSERT_TRUE(agl::Run(fconfig, ds.nodes, ds.edges, &dfs, "features").ok());
  ASSERT_TRUE(agl::Run(fconfig, ds.nodes, shuffled, &dfs, "shuffled").ok());
  auto in_order = dfs.ReadDataset("features");
  auto reordered = dfs.ReadDataset("shuffled");
  ASSERT_TRUE(in_order.ok());
  ASSERT_TRUE(reordered.ok());
  EXPECT_EQ(*in_order, *reordered);

  infer::InferConfig iconfig;
  iconfig.model = mconfig;
  iconfig.batch_slices = 3;
  iconfig.cache_budget_bytes = -1;
  auto expected = infer::RunGraphInferBatched(iconfig, state, ds.nodes,
                                              ds.edges);
  auto actual = infer::RunGraphInferBatched(iconfig, state, ds.nodes,
                                            shuffled);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectScoresIdentical(actual->scores, expected->scores,
                        "shuffled edge rows");

  ServeConfig config;
  config.infer.model = mconfig;
  config.infer.batch_slices = 3;
  config.features_dataset = "shuffled";
  config.flat = fconfig;
  auto svc = agl::Run(config, state, ds.nodes, shuffled, &dfs);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  InferenceService& service = **svc;
  ASSERT_TRUE(service.Score(all).ok());
  std::set<std::pair<flat::NodeId, flat::NodeId>> present;
  for (const auto& e : ds.edges) present.insert({e.src, e.dst});
  std::vector<Mutation> batch;
  for (std::size_t i : {std::size_t{0}, ds.edges.size() / 2,
                        ds.edges.size() - 1}) {
    batch.push_back(*Mutation::Parse(
        "remove-edge " + std::to_string(ds.edges[i].src) + " " +
        std::to_string(ds.edges[i].dst)));
  }
  for (const auto& n : ds.nodes) {
    if (n.id != 2 && !present.count({2, n.id})) {
      batch.push_back(
          *Mutation::Parse("add-edge 2 " + std::to_string(n.id) + " 2"));
      break;
    }
  }
  batch.push_back(*Mutation::Parse("update-features 3 9,8,7,6,5,4"));
  ASSERT_EQ(batch.size(), 5u);
  ASSERT_TRUE(service.ApplyMutations(batch).ok());

  std::vector<flat::NodeRecord> nodes = ds.nodes;
  std::vector<flat::EdgeRecord> edges = ds.edges;
  for (const Mutation& m : batch) {
    switch (m.type) {
      case Mutation::Type::kAddEdge:
        edges.push_back(m.edge);
        break;
      case Mutation::Type::kRemoveEdge:
        edges.erase(std::find_if(edges.begin(), edges.end(), [&](auto& e) {
          return e.src == m.edge.src && e.dst == m.edge.dst;
        }));
        break;
      case Mutation::Type::kUpdateFeatures:
        for (auto& n : nodes) {
          if (n.id == m.node) n.features = m.features;
        }
        break;
    }
  }
  auto served = service.Score(all);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectScoresIdentical(*served,
                        ColdScores(config.infer, state, nodes, edges, all),
                        std::string("mutated shuffled rows ") +
                            gnn::ModelTypeName(type));
  ASSERT_TRUE(agl::Run(fconfig, nodes, edges, &dfs, "features_cold").ok());
  auto maintained = dfs.ReadDataset("shuffled");
  auto cold = dfs.ReadDataset("features_cold");
  ASSERT_TRUE(maintained.ok());
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(*maintained, *cold);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ServeMutationTest,
                         ::testing::Values(gnn::ModelType::kGcn,
                                           gnn::ModelType::kGraphSage,
                                           gnn::ModelType::kGat),
                         [](const auto& info) {
                           return gnn::ModelTypeName(info.param);
                         });

// --- the maintained features dataset ---------------------------------------

std::map<flat::NodeId, int> InDegrees(
    const std::vector<flat::EdgeRecord>& edges) {
  std::map<flat::NodeId, int> in;
  for (const auto& e : edges) ++in[e.dst];
  return in;
}

int MaxInDegree(const std::vector<flat::EdgeRecord>& edges) {
  int best = 0;
  for (const auto& [id, d] : InDegrees(edges)) best = std::max(best, d);
  return best;
}

/// Every node within `hops` out-edge hops of a seed (the seeds included).
std::set<flat::NodeId> OutReach(const std::vector<flat::EdgeRecord>& edges,
                                const std::set<flat::NodeId>& seeds,
                                int hops) {
  std::set<flat::NodeId> reached = seeds;
  std::set<flat::NodeId> frontier = seeds;
  for (int h = 0; h < hops; ++h) {
    std::set<flat::NodeId> next;
    for (const auto& e : edges) {
      if (frontier.count(e.src) > 0 && reached.insert(e.dst).second) {
        next.insert(e.dst);
      }
    }
    frontier = std::move(next);
  }
  return reached;
}

bool IsLabeled(const flat::NodeRecord& n) {
  return n.label >= 0 || !n.multilabel.empty();
}

/// The published files of a dataset: name -> (bytes, mtime). A re-publish
/// renames a fresh directory into place, so even identical bytes come back
/// with new mtimes.
using DatasetFiles =
    std::map<std::string,
             std::pair<std::string, std::filesystem::file_time_type>>;

DatasetFiles SnapshotDataset(const std::string& dir) {
  DatasetFiles files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] = {
        std::string(std::istreambuf_iterator<char>(in), {}),
        entry.last_write_time()};
  }
  return files;
}

/// The maintained dataset equals a cold GraphFlat of `nodes`/`edges`.
void ExpectFeaturesMatchCold(const flat::GraphFlatConfig& fconfig,
                             const std::vector<flat::NodeRecord>& nodes,
                             const std::vector<flat::EdgeRecord>& edges,
                             mr::LocalDfs* dfs, const std::string& dataset,
                             const std::string& what) {
  ASSERT_TRUE(agl::Run(fconfig, nodes, edges, dfs, "features_cold").ok());
  auto maintained = dfs->ReadDataset(dataset);
  auto cold = dfs->ReadDataset("features_cold");
  ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(*maintained == *cold) << what;
}

// A features dataset that does not fit the tables fails the start with
// kFailedPrecondition, like a model that does not fit the config — not
// the first mutation batch.
TEST_F(ServeTest, StartRejectsFeaturesDatasetThatDoesNotFitTheTables) {
  data::Dataset ds = SmallUug(40);
  const gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
  const auto state = gnn::GnnModel(mconfig).StateDict();
  mr::LocalDfs dfs = OpenDfs();
  flat::GraphFlatConfig fconfig;
  fconfig.hops = 2;
  ASSERT_TRUE(agl::Run(fconfig, ds.nodes, ds.edges, &dfs, "features").ok());
  ServeConfig config;
  config.infer.model = mconfig;
  config.features_dataset = "features";
  config.flat = fconfig;
  {
    auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  }

  // One target fewer in the tables than in the dataset.
  std::vector<flat::NodeRecord> unlabeled = ds.nodes;
  unlabeled[3].label = -1;
  auto fewer = agl::Run(config, state, unlabeled, ds.edges, &dfs);
  EXPECT_EQ(fewer.status().code(), StatusCode::kFailedPrecondition)
      << fewer.status().ToString();
  // One target more: the dataset was flattened without node 3.
  ASSERT_TRUE(agl::Run(fconfig, unlabeled, ds.edges, &dfs, "fewer").ok());
  ServeConfig more_config = config;
  more_config.features_dataset = "fewer";
  auto more = agl::Run(more_config, state, ds.nodes, ds.edges, &dfs);
  EXPECT_EQ(more.status().code(), StatusCode::kFailedPrecondition)
      << more.status().ToString();
  // A hub above the threshold would make the re-flatten sample.
  ServeConfig hub_config = config;
  hub_config.flat.hub_threshold = MaxInDegree(ds.edges) - 1;
  auto hub = agl::Run(hub_config, state, ds.nodes, ds.edges, &dfs);
  EXPECT_EQ(hub.status().code(), StatusCode::kFailedPrecondition)
      << hub.status().ToString();
  // A dataset in another part layout: the first re-publish would change
  // its shape.
  flat::GraphFlatConfig sharded = fconfig;
  sharded.num_shards = 2;
  ASSERT_TRUE(agl::Run(sharded, ds.nodes, ds.edges, &dfs, "sharded").ok());
  ServeConfig layout_config = config;
  layout_config.features_dataset = "sharded";
  auto layout = agl::Run(layout_config, state, ds.nodes, ds.edges, &dfs);
  EXPECT_EQ(layout.status().code(), StatusCode::kFailedPrecondition)
      << layout.status().ToString();
  layout_config.flat.num_shards = 2;
  auto matched = agl::Run(layout_config, state, ds.nodes, ds.edges, &dfs);
  EXPECT_TRUE(matched.ok()) << matched.status().ToString();
}

// A batch whose re-flatten fails (here: it makes a hub) still changed the
// tables. The next successful batch must re-flatten the targets of the
// failed one too, or the dataset keeps a stale payload forever.
TEST_F(ServeTest, FailedReflattenIsCaughtUpByTheNextBatch) {
  data::Dataset ds = SmallUug(200, 1);
  const gnn::ModelConfig mconfig =
      SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
  const auto state = gnn::GnnModel(mconfig).StateDict();
  mr::LocalDfs dfs = OpenDfs();

  const std::map<flat::NodeId, int> in = InDegrees(ds.edges);
  flat::NodeId h = 0;
  for (const auto& [id, d] : in) {
    if (d > in.at(h)) h = id;
  }
  std::set<std::pair<flat::NodeId, flat::NodeId>> present;
  for (const auto& e : ds.edges) present.insert({e.src, e.dst});
  flat::NodeId a = h;
  for (const auto& n : ds.nodes) {
    if (n.id != h && present.count({n.id, h}) == 0) {
      a = n.id;
      break;
    }
  }
  ASSERT_NE(a, h);
  const std::set<flat::NodeId> near = OutReach(ds.edges, {a, h}, 2);
  flat::NodeId w = h;
  for (const auto& n : ds.nodes) {
    if (IsLabeled(n) && near.count(n.id) == 0) {
      w = n.id;
      break;
    }
  }
  ASSERT_NE(w, h) << "no labelled node outside the 2-hop out-reach";

  flat::GraphFlatConfig fconfig;
  fconfig.hops = 2;
  fconfig.hub_threshold = in.at(h);
  ASSERT_TRUE(agl::Run(fconfig, ds.nodes, ds.edges, &dfs, "features").ok());
  ServeConfig config;
  config.infer.model = mconfig;
  config.features_dataset = "features";
  config.flat = fconfig;
  auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  InferenceService& service = **svc;

  const std::vector<Mutation> first = {
      *Mutation::Parse("add-edge " + std::to_string(a) + " " +
                       std::to_string(h) + " 1"),
      *Mutation::Parse("update-features " + std::to_string(w) +
                       " 9,8,7,6,5,4")};
  EXPECT_EQ(service.ApplyMutations(first).code(),
            StatusCode::kFailedPrecondition);
  const std::vector<Mutation> second = {*Mutation::Parse(
      "remove-edge " + std::to_string(a) + " " + std::to_string(h))};
  ASSERT_TRUE(service.ApplyMutations(second).ok());

  std::vector<flat::NodeRecord> nodes = ds.nodes;
  std::vector<flat::EdgeRecord> edges = ds.edges;
  for (const auto* batch : {&first, &second}) {
    for (const Mutation& m : *batch) {
      ASSERT_TRUE(ApplyMutation(m, &nodes, &edges).ok());
    }
  }
  ExpectFeaturesMatchCold(fconfig, nodes, edges, &dfs, "features",
                          "after a failed batch and a successful one");
  const std::vector<flat::NodeId> all = AllIds(ds);
  auto served = service.Score(all);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectScoresIdentical(*served,
                        ColdScores(config.infer, state, nodes, edges, all),
                        "served after the failed re-flatten");
}

// Differential property: random mutation batches (applied, rolled back,
// and failing the hub check) against a service keeping a features dataset
// fresh. After every applied batch the service reports kFailedPrecondition
// exactly when the tables hold a hub; after every OK batch the dataset
// equals a cold GraphFlat, the re-flatten covered the targets within K
// out-hops of every node changed since the last OK batch, and a batch
// that dirtied no stored target published nothing.
TEST_F(ServeTest, MaintainedFeaturesMatchColdGraphFlatUnderRandomBatches) {
  constexpr int kHops = 2;
  for (uint32_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::filesystem::remove_all(root_);
    mr::LocalDfs dfs = OpenDfs();
    data::Dataset ds = SmallUug(200, 1);
    // Few stored targets, so that many batches dirty none of them.
    for (auto& n : ds.nodes) {
      if (n.id % 16 != seed % 16) n.label = -1;
    }
    const gnn::ModelConfig mconfig =
        SmallModel(gnn::ModelType::kGraphSage, 2, ds.feature_dim);
    const auto state = gnn::GnnModel(mconfig).StateDict();
    flat::GraphFlatConfig fconfig;
    fconfig.hops = kHops;
    fconfig.output_parts = 2;
    const int threshold = MaxInDegree(ds.edges);
    fconfig.hub_threshold = threshold;
    ASSERT_TRUE(
        agl::Run(fconfig, ds.nodes, ds.edges, &dfs, "features").ok());
    ServeConfig config;
    config.infer.model = mconfig;
    config.features_dataset = "features";
    config.flat = fconfig;
    auto svc = agl::Run(config, state, ds.nodes, ds.edges, &dfs);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    InferenceService& service = **svc;

    std::vector<flat::NodeRecord> nodes = ds.nodes;
    std::vector<flat::EdgeRecord> edges = ds.edges;
    std::set<flat::NodeId> labeled;
    for (const auto& n : nodes) {
      if (IsLabeled(n)) labeled.insert(n.id);
    }
    std::mt19937 rng(seed);
    auto pick = [&](std::size_t n) {
      return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    // Nodes changed since the last OK batch (the test's own model).
    std::set<flat::NodeId> pending;
    std::vector<Mutation> undo_hub;
    int hub_failures = 0, rollbacks = 0, quiet = 0, publishing = 0;
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      std::vector<Mutation> batch = std::move(undo_hub);
      undo_hub.clear();
      std::set<std::pair<flat::NodeId, flat::NodeId>> present;
      for (const auto& e : edges) present.insert({e.src, e.dst});
      for (const Mutation& m : batch) present.erase({m.edge.src, m.edge.dst});
      const int extra = 1 + static_cast<int>(pick(3));
      for (int i = 0; i < extra; ++i) {
        switch (pick(4)) {
          case 0: {  // add-edge, into a node at the threshold now and then
            const std::map<flat::NodeId, int> in = InDegrees(edges);
            flat::NodeId dst = nodes[pick(nodes.size())].id;
            if (pick(3) == 0) {
              for (const auto& [id, d] : in) {
                if (d == threshold) dst = id;
              }
            }
            const flat::NodeId src = nodes[pick(nodes.size())].id;
            if (src == dst || present.count({src, dst}) > 0) break;
            present.insert({src, dst});
            batch.push_back(*Mutation::Parse(
                "add-edge " + std::to_string(src) + " " +
                std::to_string(dst) + " 1"));
            break;
          }
          case 1: {
            const flat::EdgeRecord& e = edges[pick(edges.size())];
            if (present.count({e.src, e.dst}) == 0) break;
            present.erase({e.src, e.dst});
            batch.push_back(*Mutation::Parse(
                "remove-edge " + std::to_string(e.src) + " " +
                std::to_string(e.dst)));
            break;
          }
          default: {
            std::vector<float> features;
            for (int f = 0; f < ds.feature_dim; ++f) {
              features.push_back(static_cast<float>(pick(9)));
            }
            Mutation m;
            m.type = Mutation::Type::kUpdateFeatures;
            m.node = nodes[pick(nodes.size())].id;
            m.features = std::move(features);
            batch.push_back(std::move(m));
            break;
          }
        }
      }
      const bool doomed = pick(8) == 0;
      if (doomed) batch.push_back(*Mutation::Parse("remove-edge 0 0"));
      if (batch.empty()) continue;

      const ServeStats before = service.stats();
      const DatasetFiles files_before = SnapshotDataset(root_ + "/features");
      const agl::Status status = service.ApplyMutations(batch);
      const ServeStats after = service.stats();
      const int64_t publishes =
          after.reflatten_publishes - before.reflatten_publishes;
      if (doomed) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
        EXPECT_EQ(publishes, 0);
        EXPECT_TRUE(SnapshotDataset(root_ + "/features") == files_before);
        ++rollbacks;
        continue;
      }
      for (const Mutation& m : batch) {
        ASSERT_TRUE(ApplyMutation(m, &nodes, &edges).ok()) << m.ToString();
        pending.insert(m.type == Mutation::Type::kUpdateFeatures ? m.node
                                                                 : m.edge.dst);
      }
      if (MaxInDegree(edges) > threshold) {
        EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
            << status.ToString();
        EXPECT_EQ(publishes, 0);
        // The next batch removes in-edges of every hub down to the
        // threshold, so that most batches succeed.
        for (const auto& [id, d] : InDegrees(edges)) {
          int excess = d - threshold;
          for (const auto& e : edges) {
            if (excess <= 0) break;
            if (e.dst != id) continue;
            undo_hub.push_back(*Mutation::Parse(
                "remove-edge " + std::to_string(e.src) + " " +
                std::to_string(e.dst)));
            --excess;
          }
        }
        ++hub_failures;
        continue;
      }
      ASSERT_TRUE(status.ok()) << status.ToString();
      std::set<flat::NodeId> dirty;
      for (flat::NodeId id : OutReach(edges, pending, kHops)) {
        if (labeled.count(id) > 0) dirty.insert(id);
      }
      pending.clear();
      EXPECT_EQ(after.reflatten_dirty_targets - before.reflatten_dirty_targets,
                static_cast<int64_t>(dirty.size()));
      EXPECT_EQ(publishes, dirty.empty() ? 0 : 1);
      if (dirty.empty()) {
        EXPECT_TRUE(SnapshotDataset(root_ + "/features") == files_before)
            << "a batch that dirtied no stored target re-published";
        ++quiet;
      } else {
        ++publishing;
      }
      ExpectFeaturesMatchCold(fconfig, nodes, edges, &dfs, "features",
                              "after an OK batch");
    }
    // The schedule is not vacuous: every path ran.
    EXPECT_GT(hub_failures, 0);
    EXPECT_GT(rollbacks, 0);
    EXPECT_GT(quiet, 0);
    EXPECT_GT(publishing, 0);
  }
}

}  // namespace
}  // namespace agl::serve
