// `pipeline` and `pipeline_procs`: the paper's integrated offline path,
// PageRank -> AugmentNodeTable -> GraphFlat -> LoadGraphFeatures ->
// GraphTrainer -> batched GraphInfer, repeated for the run's duration.
// The two workloads run the same job; `pipeline_procs` crosses the process
// boundary for analytics, GraphFlat and training (DfsExchange, socket PS,
// spawned workers), so its numbers carry the boundary tax and
// `pipeline`'s must not.
//
// Thread budget (nproc = 4): 2 shards x 2 MR workers, 2 trainer workers,
// 2 inference MR workers; stages run one after another.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "agl/agl.h"
#include "analytics/programs.h"
#include "data/dataset.h"
#include "driver/driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace agl;

constexpr int64_t kNodes = 6000;
constexpr int64_t kFeatureDim = 32;
constexpr int kShards = 2;
constexpr int kMrWorkers = 2;
constexpr int kTrainWorkers = 2;
constexpr int kEpochs = 5;
/// Table generation takes ~30 ms, so one set-up window generates the
/// tables and opens the DFS roots kStepsPerSetup times: ~0.5 s of
/// CPU-bound work. A run holds kSetupReps windows; setup_s is the median.
constexpr int kSetupReps = 5;
constexpr int kStepsPerSetup = 20;
constexpr int kSampleTargets = 64;

data::Dataset MakeGraph(uint64_t seed) {
  data::UugLikeOptions o;
  o.num_nodes = kNodes;
  o.feature_dim = kFeatureDim;
  o.train_size = 1200;
  o.val_size = 300;
  o.test_size = 600;
  o.seed = seed;
  return data::MakeUugLike(o);
}

analytics::AnalyticsConfig AnalyticsCfg() {
  analytics::AnalyticsConfig c;
  c.max_supersteps = 10;
  c.num_shards = kShards;
  c.job.num_workers = kMrWorkers;
  return c;
}

flat::GraphFlatConfig FlatCfg() {
  flat::GraphFlatConfig c;
  c.hops = 2;
  c.sampler = {sampling::Strategy::kUniform, 10};
  c.num_shards = kShards;
  c.job.num_workers = kMrWorkers;
  return c;
}

trainer::TrainerConfig TrainCfg() {
  trainer::TrainerConfig c;
  c.model.type = gnn::ModelType::kGraphSage;
  c.model.num_layers = 2;
  c.model.in_dim = kFeatureDim + 1;  // + the PageRank column
  c.model.hidden_dim = 32;
  c.model.out_dim = 2;
  c.task = trainer::TaskKind::kBinaryAuc;
  c.sync_mode = trainer::SyncMode::kSsp;
  c.staleness_bound = 0;
  c.num_workers = kTrainWorkers;
  c.epochs = kEpochs;
  c.eval_every = kEpochs;
  return c;
}

infer::InferConfig InferCfg() {
  infer::InferConfig c;
  c.model = TrainCfg().model;
  c.job.num_workers = kMrWorkers;
  c.num_shards = kShards;
  c.batch_slices = 4;
  c.cache_budget_bytes = -1;
  return c;
}

struct Job {
  double wall = 0;
  double cpu = 0;
  // Stage walls, in job order.
  double analytics_s = 0, augment_s = 0, flat_s = 0, load_s = 0,
         train_s = 0, infer_s = 0;
  analytics::AnalyticsResult pagerank;
  flat::GraphFlatStats flat;
  trainer::TrainReport train;
  infer::InferResult infer;
  driver::DriverStats driver;
  // Output digests (computed after the timed window of the job).
  uint64_t d_pagerank = 0, d_dataset = 0, d_state = 0, d_scores = 0;

  double Residual() const {
    return perfbench::Residual(wall, {analytics_s, augment_s, flat_s, load_s,
                                      train_s, infer_s});
  }
};

struct Env {
  data::Dataset ds;
  mr::LocalDfs* dfs;        // job outputs
  driver::DriverOptions driver;  // coordination DFS for worker processes
};

uint64_t ScoresDigest(const infer::InferResult& r) {
  uint64_t h = Fnv("");
  for (const auto& [id, s] : r.scores) {
    h = Fnv(std::string_view(reinterpret_cast<const char*>(&id), sizeof(id)),
            h);
    h = Fnv(std::string_view(reinterpret_cast<const char*>(s.data()),
                             s.size() * sizeof(float)),
            h);
  }
  return h;
}

agl::Status RunJob(Env* env, bool processes, Tracer* tracer, int parent,
                   Job* job) {
  const data::Dataset& ds = env->ds;
  const double cpu0 = CpuSeconds();
  Span job_span(tracer, processes ? "job.processes" : "job.threads", parent);
  const int jid = job_span.id();
  {
    Span s(tracer, "analytics", jid);
    if (processes) {
      driver::ProgramSpec spec;
      spec.name = "pagerank";
      AGL_ASSIGN_OR_RETURN(
          job->pagerank,
          driver::RunAnalyticsProcesses(env->driver, AnalyticsCfg(), spec,
                                        ds.nodes, ds.edges, &job->driver));
    } else {
      AGL_ASSIGN_OR_RETURN(job->pagerank,
                           agl::Run(AnalyticsCfg(),
                                    analytics::PageRankProgram(), ds.nodes,
                                    ds.edges));
    }
    job->analytics_s = s.Close();
  }
  std::vector<flat::NodeRecord> nodes;
  {
    Span s(tracer, "augment", jid);
    AGL_ASSIGN_OR_RETURN(nodes,
                         analytics::AugmentNodeTable(ds.nodes, job->pagerank));
    job->augment_s = s.Close();
  }
  {
    Span s(tracer, "flat", jid);
    if (processes) {
      AGL_ASSIGN_OR_RETURN(
          job->flat, driver::RunGraphFlatProcesses(env->driver, FlatCfg(),
                                                   nodes, ds.edges, env->dfs,
                                                   "features", &job->driver));
    } else {
      AGL_ASSIGN_OR_RETURN(job->flat, agl::Run(FlatCfg(), nodes, ds.edges,
                                               env->dfs, "features"));
    }
    job->flat_s = s.Close();
  }
  data::FeatureSplits splits;
  {
    Span s(tracer, "dfs.load", jid);
    AGL_ASSIGN_OR_RETURN(auto features,
                         agl::LoadGraphFeatures(*env->dfs, "features"));
    splits = data::SplitFeatures(std::move(features), ds);
    job->load_s = s.Close();
  }
  {
    Span s(tracer, "train", jid);
    if (processes) {
      AGL_ASSIGN_OR_RETURN(job->train,
                           driver::TrainProcesses(env->driver, TrainCfg(),
                                                  splits.train, splits.val,
                                                  &job->driver));
    } else {
      AGL_ASSIGN_OR_RETURN(job->train,
                           agl::Run(TrainCfg(), splits.train, splits.val));
    }
    job->train_s = s.Close();
  }
  {
    Span s(tracer, "infer", jid);
    AGL_ASSIGN_OR_RETURN(job->infer, agl::Run(InferCfg(), job->train.final_state,
                                              nodes, ds.edges));
    job->infer_s = s.Close();
  }
  job->wall = job_span.Close();
  job->cpu = CpuSeconds() - cpu0;

  // Digests, outside the job's timed window.
  job->d_pagerank = Fnv(job->pagerank.SerializeValues());
  AGL_ASSIGN_OR_RETURN(auto records, env->dfs->ReadDataset("features"));
  job->d_dataset = Fnv("");
  for (const auto& r : records) job->d_dataset = Fnv(r, job->d_dataset);
  job->d_state = Fnv(agl::SerializeState(job->train.final_state));
  job->d_scores = ScoresDigest(job->infer);
  return env->dfs->DropDataset("features");
}

/// Served-vs-cold oracle for offline scores: a sample of the batched,
/// cached scores must be byte-identical to a single-pass uncached
/// GraphInfer over just those targets.
bool SampleMatchesUnbatched(const Env& env, const Job& job, uint64_t seed,
                            std::string* why) {
  auto nodes = analytics::AugmentNodeTable(env.ds.nodes, job.pagerank);
  if (!nodes.ok()) {
    *why = nodes.status().ToString();
    return false;
  }
  infer::InferConfig c = InferCfg();
  c.batch_slices = 1;
  c.cache_budget_bytes = 0;
  c.num_shards = 1;
  SplitMix rng(seed);
  std::map<flat::NodeId, const std::vector<float>*> batched;
  for (const auto& [id, s] : job.infer.scores) batched[id] = &s;
  for (int i = 0; i < kSampleTargets; ++i) {
    c.target_ids.push_back(
        env.ds.nodes[rng.Below(env.ds.nodes.size())].id);
  }
  auto single = agl::Run(c, job.train.final_state, *nodes, env.ds.edges);
  if (!single.ok()) {
    *why = single.status().ToString();
    return false;
  }
  for (const auto& [id, s] : single->scores) {
    auto it = batched.find(id);
    if (it == batched.end() || it->second->size() != s.size() ||
        std::memcmp(it->second->data(), s.data(), s.size() * sizeof(float))) {
      *why = "node " + std::to_string(id) + " scored differently";
      return false;
    }
  }
  return true;
}

std::vector<double> Collect(const std::vector<Job>& jobs,
                            double (*f)(const Job&)) {
  std::vector<double> v;
  for (const Job& j : jobs) v.push_back(f(j));
  return v;
}

}  // namespace

Report RunPipeline(const Options& options, bool processes, Tracer* tracer) {
  Report report;
  Tracer untraced(false);

  // --- set-up: windows of table generation + DFS open; median reported.
  std::vector<double> setup_s, tables_s, open_s;
  data::Dataset ds;
  std::optional<mr::LocalDfs> dfs, coord;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span total(tracer, "setup");
    double tables = 0, open = 0;
    for (int step = 0; step < kStepsPerSetup; ++step) {
      Span gen(tracer, "setup.tables", total.id());
      ds = MakeGraph(StreamSeed(options.seed, 0));
      tables += gen.Close();
      Span opening(tracer, "setup.dfs_open", total.id());
      dfs.reset();
      coord.reset();
      if (!WipeDir(options.work_dir)) {
        report.Fail("cannot wipe " + options.work_dir);
        return report;
      }
      auto out = mr::LocalDfs::Open(options.work_dir + "/out");
      auto co = mr::LocalDfs::Open(options.work_dir + "/coord");
      if (!out.ok() || !co.ok()) {
        report.Fail("LocalDfs::Open failed");
        return report;
      }
      dfs.emplace(std::move(out).value());
      coord.emplace(std::move(co).value());
      open += opening.Close();
    }
    tables_s.push_back(tables);
    open_s.push_back(open);
    setup_s.push_back(total.Close());
    std::fprintf(stderr, "setup %d: %.3f s (tables %.3f, dfs open %.3f)\n",
                 rep, setup_s.back(), tables, open);
  }
  Env env{std::move(ds), &*dfs, {}};
  env.driver.dfs = &*coord;
  env.driver.job_prefix = "pb";

  // --- timed window: whole jobs, each started only if a job as long as
  // the last one still ends inside the run's seconds.
  std::vector<Job> jobs;
  std::vector<double> traced_walls, untraced_walls;
  double peak_rss = 0;
  Span window(tracer, "window");
  const double t0 = Now();
  do {
    // In a traced run every other job records spans, so the two halves
    // give the tracing overhead.
    const bool traced = tracer->enabled() && jobs.size() % 2 == 0;
    Job job;
    report.attempted++;
    agl::Status st = RunJob(&env, processes, traced ? tracer : &untraced,
                            traced ? window.id() : -1, &job);
    if (!st.ok()) {
      report.failed++;
      report.Fail("job " + std::to_string(jobs.size()) + ": " + st.ToString());
      return report;
    }
    (traced ? traced_walls : untraced_walls).push_back(job.wall);
    jobs.push_back(std::move(job));
    // Peak memory of set-up plus one job: later jobs only add allocator
    // retention, and how many run depends on machine speed.
    if (jobs.size() == 1) peak_rss = PeakRssMb(processes);
  } while (Now() - t0 + jobs.back().wall <= options.seconds);
  window.Close();

  // --- correctness gates (untimed).
  const Job& first = jobs.front();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    const std::string tag = "job " + std::to_string(i) + ": ";
    report.Check(j.d_pagerank == first.d_pagerank &&
                     j.d_dataset == first.d_dataset &&
                     j.d_state == first.d_state &&
                     j.d_scores == first.d_scores,
                 tag + "digests differ from job 0 (nondeterminism)");
    report.Check(j.driver.restarts == 0 && j.driver.signal_exits == 0 &&
                     j.driver.error_exits == 0,
                 tag + "driver restarted or lost a worker");
    report.Check(j.pagerank.stats.job_stats.failed_attempts == 0 &&
                     j.flat.job_stats.failed_attempts == 0,
                 tag + "MR task retried");
    report.Check(j.infer.scores.size() == static_cast<std::size_t>(kNodes),
                 tag + "infer did not score every node");
  }
  std::string why;
  const bool sample_ok =
      SampleMatchesUnbatched(env, first, StreamSeed(options.seed, 9), &why);
  report.Check(sample_ok, "batched scores != single-pass scores: " + why);
  if (processes) {
    // Process == thread oracle: the in-process job must reproduce every
    // digest of the process job.
    Job oracle;
    agl::Status st = RunJob(&env, false, &untraced, -1, &oracle);
    if (report.Check(st.ok(), "thread oracle job: " + st.ToString())) {
      report.Check(oracle.d_pagerank == first.d_pagerank,
                   "pagerank: processes != threads");
      report.Check(oracle.d_dataset == first.d_dataset,
                   "graphflat dataset: processes != threads");
      report.Check(oracle.d_state == first.d_state,
                   "state dict: processes != threads");
      report.Check(oracle.d_scores == first.d_scores,
                   "scores: processes != threads");
    }
  }
  std::fprintf(stderr,
               "digests: pagerank=%s dataset=%s state=%s scores=%s\n",
               Hex(first.d_pagerank).c_str(), Hex(first.d_dataset).c_str(),
               Hex(first.d_state).c_str(), Hex(first.d_scores).c_str());

  // --- end-to-end metrics.
  const auto walls = Collect(jobs, [](const Job& j) { return j.wall; });
  report.E2E("setup_s", Median(setup_s), "s");
  // A run holds a few jobs, so no percentile above the median has ten
  // samples beyond it.
  report.E2E("p50_ms", Median(walls) * 1e3, "ms");
  report.E2E("cpu_ms_per_op",
             Median(Collect(jobs, [](const Job& j) { return j.cpu; })) * 1e3,
             "ms");
  report.E2E("peak_rss_mb", peak_rss, "MB");

  // --- per-layer metrics: medians of stage walls, counts of job 0 (every
  // job's counts are identical; the digest gate proves the outputs are).
  const auto med = [&](double (*f)(const Job&)) {
    return Median(Collect(jobs, f));
  };
  const driver::DriverStats& dr = first.driver;
  flat::ExchangeStats ex = first.flat.exchange;
  ex.Accumulate(first.pagerank.stats.exchange);
  mr::JobStats mrs = first.flat.job_stats;
  mrs.Accumulate(first.pagerank.stats.job_stats);
  int64_t messages = 0;
  for (int64_t m : first.pagerank.stats.messages_per_round) messages += m;
  double prep = 0, compute = 0, comm = 0;
  for (const auto& e : first.train.epochs) {
    prep += e.prep_seconds;
    compute += e.compute_seconds;
    comm += e.comm_seconds;
  }
  const ps::ServerStats& ps = first.train.ps_stats;
  const infer::InferCosts& ic = first.infer.costs;

  report.Layer("analytics.wall_s", med([](const Job& j) { return j.analytics_s; }), "s");
  report.Layer("analytics.messages", static_cast<double>(messages), "count");
  report.Layer("flat.wall_s", med([](const Job& j) { return j.flat_s; }), "s");
  report.Layer("mr.shuffled_records", static_cast<double>(mrs.shuffled_records), "count");
  report.Layer("mr.max_reduce_task_records", static_cast<double>(mrs.max_reduce_task_records), "count");
  report.Layer("mr.task_attempts", static_cast<double>(mrs.task_attempts), "count");
  report.Layer("exchange.publishes", static_cast<double>(ex.publishes), "count");
  report.Layer("exchange.bytes", static_cast<double>(ex.bytes_published), "bytes");
  report.Layer("exchange.wait_s", ex.wait_seconds, "s");
  report.Layer("dfs.load_s", med([](const Job& j) { return j.load_s; }), "s");
  report.Layer("train.wall_s", med([](const Job& j) { return j.train_s; }), "s");
  report.Layer("train.prep_s", prep, "s");
  report.Layer("train.compute_s", compute, "s");
  report.Layer("train.comm_s", comm, "s");
  report.Layer("train.val_auc", first.train.best_val_metric, "auc");
  report.Layer("ps.pulls", static_cast<double>(ps.pulls), "count");
  report.Layer("ps.bytes", static_cast<double>(ps.bytes_pulled + ps.bytes_pushed), "bytes");
  report.Layer("ps.ssp_waits", static_cast<double>(ps.ssp_waits), "count");
  report.Layer("ps.wire_requests", static_cast<double>(dr.ps_transport.requests), "count");
  report.Layer("ps.wire_bytes", static_cast<double>(dr.ps_transport.bytes_received + dr.ps_transport.bytes_sent), "bytes");
  report.Layer("driver.spawns", static_cast<double>(dr.spawns), "count");
  report.Layer("driver.restarts", static_cast<double>(dr.restarts), "count");
  report.Layer("infer.wall_s", med([](const Job& j) { return j.infer_s; }), "s");
  report.Layer("infer.evals", static_cast<double>(ic.embedding_evaluations), "count");
  report.Layer("infer.hit_ratio",
               static_cast<double>(ic.cache_hits) /
                   static_cast<double>(std::max<int64_t>(1, ic.cache_hits + ic.cache_misses)),
               "ratio");
  report.Layer("job.residual_s", med([](const Job& j) { return j.Residual(); }), "s");
  report.Layer("setup.tables_s", Median(tables_s), "s");
  report.Layer("setup.dfs_open_s", Median(open_s), "s");
  if (tracer->enabled() && !untraced_walls.empty()) {
    report.Layer("trace.overhead_ms",
                 (Median(traced_walls) - Median(untraced_walls)) * 1e3, "ms");
  }
  return report;
}

}  // namespace perfbench
