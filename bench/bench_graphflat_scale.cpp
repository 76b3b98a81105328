// GraphFlat scalability & skew ablation (§3.2.2 / §4.2.2 text claims).
//
// Reports: (a) wall time and reduce-task skew with and without hub
// re-indexing on a hubby graph; (b) neighborhood-size distribution under
// the different sampling strategies; (c) GraphFlat scaling with worker
// count. The paper's claims: re-indexing fixes reducer load balance, and
// sampling bounds neighborhood sizes ("decreased to an acceptable size").
// Sharded GraphFlat is measured by perfbench's pipeline_procs workload
// (flat.wall_s, mr.max_reduce_task_records).

#include <algorithm>
#include <cstdio>

#include "data/dataset.h"
#include "flat/graphflat.h"

int main() {
  using namespace agl;

  data::UugLikeOptions opts;
  opts.num_nodes = 3000;
  opts.feature_dim = 16;
  opts.attach_edges = 6;
  opts.train_size = 1500;
  opts.val_size = 300;
  opts.test_size = 300;
  data::Dataset ds = data::MakeUugLike(opts);
  std::vector<int64_t> in_degree(ds.num_nodes(), 0);
  for (const auto& e : ds.edges) in_degree[e.dst]++;
  std::printf("graph: %lld nodes, %lld edges, max in-degree %lld\n\n",
              static_cast<long long>(ds.num_nodes()),
              static_cast<long long>(ds.num_edges()),
              static_cast<long long>(
                  *std::max_element(in_degree.begin(), in_degree.end())));

  // (a) Re-indexing ablation.
  std::printf("(a) hub re-indexing ablation (2 hops, uniform sampling 10)\n");
  std::printf("%-24s %12s %18s %14s\n", "config", "time (s)",
              "max reduce rec", "max nbhd");
  for (bool reindex : {false, true}) {
    flat::GraphFlatConfig config;
    config.hops = 2;
    config.sampler = {sampling::Strategy::kUniform, 10};
    config.hub_threshold = reindex ? 32 : 0;  // 0 disables re-indexing
    config.reindex_fanout = 8;
    config.job.num_workers = 8;
    flat::GraphFlatStats stats;
    auto features =
        flat::RunGraphFlatInMemory(config, ds.nodes, ds.edges, &stats);
    if (!features.ok()) {
      std::fprintf(stderr, "%s\n", features.status().ToString().c_str());
      return 1;
    }
    std::printf("%-24s %12.2f %18lld %14lld\n",
                reindex ? "with re-indexing" : "without re-indexing",
                stats.elapsed_seconds,
                static_cast<long long>(
                    stats.job_stats.max_reduce_task_records),
                static_cast<long long>(stats.max_nodes));
  }

  // (b) Sampling strategies.
  std::printf("\n(b) sampling strategy vs neighborhood size (2 hops)\n");
  std::printf("%-12s %12s %14s %14s\n", "strategy", "cap", "avg nbhd",
              "max nbhd");
  struct Case {
    sampling::Strategy strategy;
    int64_t cap;
  };
  for (const Case c : {Case{sampling::Strategy::kNone, 0},
                       Case{sampling::Strategy::kUniform, 5},
                       Case{sampling::Strategy::kUniform, 15},
                       Case{sampling::Strategy::kWeighted, 15},
                       Case{sampling::Strategy::kTopK, 15}}) {
    flat::GraphFlatConfig config;
    config.hops = 2;
    config.sampler = {c.strategy, c.cap};
    config.job.num_workers = 8;
    flat::GraphFlatStats stats;
    auto features =
        flat::RunGraphFlatInMemory(config, ds.nodes, ds.edges, &stats);
    if (!features.ok()) {
      std::fprintf(stderr, "%s\n", features.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12s %12lld %14.1f %14lld\n",
                sampling::StrategyName(c.strategy),
                static_cast<long long>(c.cap),
                static_cast<double>(stats.total_nodes) / stats.num_features,
                static_cast<long long>(stats.max_nodes));
  }

  // (c) Worker scaling.
  std::printf("\n(c) GraphFlat worker scaling (2 hops, uniform 10)\n");
  std::printf("%-10s %12s %10s\n", "workers", "time (s)", "speedup");
  double t1 = 0;
  for (int workers : {1, 2, 4, 8}) {
    flat::GraphFlatConfig config;
    config.hops = 2;
    config.sampler = {sampling::Strategy::kUniform, 10};
    config.job.num_workers = workers;
    flat::GraphFlatStats stats;
    auto features =
        flat::RunGraphFlatInMemory(config, ds.nodes, ds.edges, &stats);
    if (!features.ok()) return 1;
    if (workers == 1) t1 = stats.elapsed_seconds;
    std::printf("%-10d %12.2f %10.2f\n", workers, stats.elapsed_seconds,
                t1 / stats.elapsed_seconds);
  }

  return 0;
}
