// agl_cli — the command-line front end of Figure 6, one subcommand per
// stage:
//
//   agl_cli graphflat -n node.csv -e edge.csv -h 2 -s uniform -o dfs:features
//   agl_cli train     -m gcn -i dfs:features --val dfs:val -o dfs:model
//   agl_cli infer     -m dfs:model -n node.csv -e edge.csv -o scores.csv
//   agl_cli serve     -m dfs:model -n node.csv -e edge.csv --script ops.txt
//                     -o scores.csv
//   agl_cli gendata   -d uug -n 1000 --nodes-out node.csv --edges-out edge.csv
//   agl_cli analytics pagerank -n node.csv -e edge.csv -o ranks.csv
//
// How a stage is deployed is a flag, not a second command: graphflat,
// analytics and train take --coord <dir>, and their shards or workers then
// run as processes of this binary (driver/driver.h), coordinated through a
// LocalDfs at <dir>. Outputs are byte-identical to the in-process run; the
// driver's supervision and transport counters are printed after the
// stage's summary.
//
//   agl_cli graphflat -n node.csv -e edge.csv --shards 4 --coord /tmp/coord
//                     -o dfs:features
//
// DFS locations are "<root-dir>:<dataset>"; every stage round-trips
// through CSV tables and the LocalDfs so the pipeline can be driven one
// command at a time, as in production.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "agl/agl.h"
#include "common/failpoint.h"
#include "common/flags.h"
#include "data/dataset.h"
#include "driver/driver.h"
#include "flat/csv_io.h"

namespace {

using namespace agl;

agl::Status Usage(const std::string& what, const FlagParser& parser) {
  return agl::Status::InvalidArgument(what + "\n" + parser.Help());
}

/// Arms the failpoints of a --failpoints spec. Validated before anything
/// is armed, so a typo names the bad entry (and the known sites) up front
/// instead of silently running fault-free.
agl::Status ArmFailpoints(const std::string& spec) {
  if (spec.empty()) return agl::Status::OK();
  AGL_RETURN_IF_ERROR(fail::ValidateSpec(spec));
  return fail::ApplySpec(spec);
}

struct Tables {
  std::vector<flat::NodeRecord> nodes;
  std::vector<flat::EdgeRecord> edges;
};

/// The node/edge CSV pair every graph stage starts from.
agl::Result<Tables> ReadTables(const std::string& node_csv,
                               const std::string& edge_csv) {
  Tables t;
  AGL_ASSIGN_OR_RETURN(t.nodes, flat::ReadNodeCsv(node_csv));
  if (t.nodes.empty()) {
    return agl::Status::InvalidArgument("node table '" + node_csv +
                                        "' has no rows");
  }
  AGL_ASSIGN_OR_RETURN(t.edges, flat::ReadEdgeCsv(edge_csv));
  return t;
}

/// A "<dfs-root>:<dataset>" location with its root opened.
struct DfsLocation {
  std::string dataset;
  mr::LocalDfs dfs;
};

agl::Result<DfsLocation> OpenDfsLocation(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return agl::Status::InvalidArgument(
        "expected <dfs-root>:<dataset>, got '" + spec + "'");
  }
  AGL_ASSIGN_OR_RETURN(mr::LocalDfs dfs,
                       mr::LocalDfs::Open(spec.substr(0, colon)));
  return DfsLocation{spec.substr(colon + 1), std::move(dfs)};
}

/// The trained state dict a one-record model dataset holds (what `train`
/// writes). Whether it fits the model flags is GraphInfer's check.
agl::Result<std::map<std::string, tensor::Tensor>> LoadModel(
    const DfsLocation& loc, const std::string& spec) {
  if (!loc.dfs.DatasetExists(loc.dataset)) {
    return agl::Status::NotFound("model dataset '" + spec +
                                 "' not found — train one first: agl_cli "
                                 "train ... -o " + spec);
  }
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> records,
                       loc.dfs.ReadDataset(loc.dataset));
  if (records.size() != 1) {
    return agl::Status::Corruption(
        "model dataset '" + spec + "' must hold exactly 1 record, found " +
        std::to_string(records.size()) +
        " — is it a GraphFeature dataset instead of a trained model?");
  }
  auto state = ParseState(records[0]);
  if (!state.ok()) {
    return agl::Status(state.status().code(),
                       "model dataset '" + spec + "' does not parse as a "
                       "trained state dict: " + state.status().message());
  }
  return state;
}

/// Writes `header` and then whatever `rows` prints to the CSV at `path`.
agl::Status WriteCsv(const std::string& path, const std::string& header,
                     const std::function<agl::Status(std::FILE*)>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return agl::Status::IoError("cannot write " + path);
  std::fprintf(f, "%s\n", header.c_str());
  const agl::Status status = rows(f);
  std::fclose(f);
  return status;
}

void PrintScores(std::FILE* f, const std::vector<float>& scores) {
  for (float v : scores) std::fprintf(f, ",%g", v);
  std::fprintf(f, "\n");
}

/// The model-shape flags of train, infer and serve. `type_flag` names the
/// model-type flag: -m for train, --model-type where -m is the artifact.
struct ModelFlags {
  std::string type = "gcn";
  int64_t layers = 2, hidden = 16, classes = 2, heads = 1;
  double dropout = 0.0;

  void Register(FlagParser* parser, const std::string& type_flag) {
    parser->AddString(type_flag, &type, "model (gcn|graphsage|gat)")
        .AddInt("layers", &layers, "GNN depth")
        .AddInt("hidden", &hidden, "hidden width")
        .AddInt("classes", &classes, "output width")
        .AddInt("heads", &heads, "GAT attention heads");
  }

  agl::Result<gnn::ModelConfig> Config(int64_t in_dim) const {
    gnn::ModelConfig config;
    AGL_ASSIGN_OR_RETURN(config.type, gnn::ParseModelType(type));
    config.num_layers = static_cast<int>(layers);
    config.in_dim = in_dim;
    config.hidden_dim = hidden;
    config.out_dim = classes;
    config.gat_heads = static_cast<int>(heads);
    config.dropout = static_cast<float>(dropout);
    return config;
  }
};

/// --coord and its companions, shared by graphflat, analytics and train.
/// With --coord set the stage runs through its driver:: entry point:
/// shards or workers become processes of this binary, coordinated through
/// the LocalDfs at that root, and the outputs stay byte-identical.
class CoordFlags {
 public:
  // options_ points at dfs_, and the parser at the flag fields.
  CoordFlags() = default;
  CoordFlags(const CoordFlags&) = delete;
  CoordFlags& operator=(const CoordFlags&) = delete;

  void Register(FlagParser* parser) {
    parser
        ->AddString("coord", &root_,
                    "run shards/workers as processes coordinated through "
                    "this DFS root (job specs, exchange buckets, reports)")
        .AddString("job-prefix", &options_.job_prefix,
                   "--coord: dataset namespace for this job")
        .AddInt("max-restarts", &max_restarts_,
                "--coord: relaunches granted to a signal-killed worker "
                "(trainer: broken epoch) before the job fails")
        .AddString("worker-failpoints", &worker_failpoints_,
                   "--coord: fault spec armed in each worker's first "
                   "attempt only (e.g. 'trainer.step=crash@3')");
  }

  bool enabled() const { return !root_.empty(); }

  /// Opens the coordination root once the flags are parsed.
  agl::Status Open() {
    if (!enabled()) {
      return worker_failpoints_.empty()
                 ? agl::Status::OK()
                 : agl::Status::InvalidArgument(
                       "--worker-failpoints needs --coord");
    }
    AGL_ASSIGN_OR_RETURN(dfs_, mr::LocalDfs::Open(root_));
    options_.dfs = &*dfs_;
    options_.max_restarts = static_cast<int>(max_restarts_);
    if (!worker_failpoints_.empty()) {
      AGL_RETURN_IF_ERROR(fail::ValidateSpec(worker_failpoints_));
      options_.first_attempt_env.push_back("AGL_FAILPOINTS=" +
                                           worker_failpoints_);
    }
    return agl::Status::OK();
  }

  const driver::DriverOptions& options() const { return options_; }
  driver::DriverStats* stats() { return &stats_; }

  /// The supervision/transport counters of a --coord run.
  void PrintStats() const {
    if (!enabled()) return;
    std::printf(
        "driver: %lld spawns (%lld restarts), exits clean=%lld "
        "signal=%lld error=%lld\n",
        static_cast<long long>(stats_.spawns),
        static_cast<long long>(stats_.restarts),
        static_cast<long long>(stats_.clean_exits),
        static_cast<long long>(stats_.signal_exits),
        static_cast<long long>(stats_.error_exits));
    const flat::ExchangeStats& ex = stats_.exchange;
    if (ex.publishes + ex.collects + ex.allgathers > 0) {
      std::printf(
          "exchange: %lld publishes / %lld collects / %lld allgathers, "
          "%lld records out / %lld in, %lld bytes out / %lld in, "
          "%.2fs waiting on peers\n",
          static_cast<long long>(ex.publishes),
          static_cast<long long>(ex.collects),
          static_cast<long long>(ex.allgathers),
          static_cast<long long>(ex.records_published),
          static_cast<long long>(ex.records_collected),
          static_cast<long long>(ex.bytes_published),
          static_cast<long long>(ex.bytes_collected), ex.wait_seconds);
    }
    const ps::PsTransportStats& tp = stats_.ps_transport;
    if (tp.connections + tp.requests > 0) {
      std::printf(
          "ps-transport: %lld connections, %lld requests (%lld failed), "
          "%lld bytes in / %lld out\n",
          static_cast<long long>(tp.connections),
          static_cast<long long>(tp.requests),
          static_cast<long long>(tp.failed_requests),
          static_cast<long long>(tp.bytes_received),
          static_cast<long long>(tp.bytes_sent));
    }
  }

 private:
  std::string root_, worker_failpoints_;
  int64_t max_restarts_ = 2;
  std::optional<mr::LocalDfs> dfs_;
  driver::DriverOptions options_;
  driver::DriverStats stats_;
};

agl::Status RunGraphFlatCmd(const std::vector<std::string>& args) {
  std::string node_csv, edge_csv, sampling = "none", output, failpoints;
  int64_t hops = 2, max_neighbors = 0, hub_threshold = 10000, workers = 4,
          shards = 1;
  CoordFlags coord;
  FlagParser parser;
  parser.AddString("n", &node_csv, "node table CSV")
      .AddString("e", &edge_csv, "edge table CSV")
      .AddInt("h", &hops, "neighborhood hops")
      .AddString("s", &sampling,
                 "sampling strategy (none|uniform|weighted|topk)")
      .AddInt("max-neighbors", &max_neighbors, "sampling cap per node")
      .AddInt("hub-threshold", &hub_threshold, "re-indexing threshold")
      .AddInt("workers", &workers, "MapReduce workers per shard")
      .AddInt("shards", &shards, "GraphFlat shards (merged output)")
      .AddString("failpoints", &failpoints,
                 "fault-injection spec, e.g. 'mr.map=error(0.1);seed=7'")
      .AddString("o", &output, "output <dfs-root>:<dataset>");
  coord.Register(&parser);
  AGL_RETURN_IF_ERROR(parser.Parse(args));
  if (node_csv.empty() || edge_csv.empty() || output.empty()) {
    return Usage("graphflat requires -n, -e and -o", parser);
  }
  AGL_RETURN_IF_ERROR(ArmFailpoints(failpoints));
  AGL_RETURN_IF_ERROR(coord.Open());

  flat::GraphFlatConfig config;
  config.hops = static_cast<int>(hops);
  AGL_ASSIGN_OR_RETURN(const sampling::Strategy strategy,
                       sampling::ParseStrategy(sampling));
  config.sampler = {strategy, max_neighbors};
  config.hub_threshold = hub_threshold;
  config.job.num_workers = static_cast<int>(workers);
  config.num_shards = static_cast<int>(shards);
  AGL_ASSIGN_OR_RETURN(Tables t, ReadTables(node_csv, edge_csv));
  AGL_ASSIGN_OR_RETURN(DfsLocation out, OpenDfsLocation(output));
  AGL_ASSIGN_OR_RETURN(
      const flat::GraphFlatStats stats,
      coord.enabled()
          ? driver::RunGraphFlatProcesses(coord.options(), config, t.nodes,
                                          t.edges, &out.dfs, out.dataset,
                                          coord.stats())
          : Run(config, t.nodes, t.edges, &out.dfs, out.dataset));
  std::printf("GraphFlat: %lld features (avg %.1f nodes) -> %s in %.2fs\n",
              static_cast<long long>(stats.num_features),
              static_cast<double>(stats.total_nodes) /
                  std::max<int64_t>(1, stats.num_features),
              output.c_str(), stats.elapsed_seconds);
  coord.PrintStats();
  return agl::Status::OK();
}

agl::Result<trainer::TaskKind> ParseTask(const std::string& task) {
  if (task == "single") return trainer::TaskKind::kSingleLabel;
  if (task == "multi") return trainer::TaskKind::kMultiLabel;
  if (task == "auc") return trainer::TaskKind::kBinaryAuc;
  return agl::Status::InvalidArgument("unknown -t '" + task +
                                      "' (single|multi|auc)");
}

agl::Result<trainer::SyncMode> ParseSync(const std::string& sync) {
  if (sync == "async") return trainer::SyncMode::kAsync;
  if (sync == "bsp") return trainer::SyncMode::kBsp;
  if (sync == "ssp") return trainer::SyncMode::kSsp;
  return agl::Status::InvalidArgument("unknown --sync '" + sync +
                                      "' (async|bsp|ssp)");
}

agl::Status RunTrainCmd(const std::vector<std::string>& args) {
  std::string input, output, task = "single", val_input, sync = "async",
              failpoints;
  int64_t workers = 2, epochs = 10, batch = 32, staleness = 1, prefetch = 2,
          checkpoint_every = 0;
  double lr = 0.01;
  bool stream = false, no_pipeline = false, resume = false;
  ModelFlags model;
  CoordFlags coord;
  FlagParser parser;
  model.Register(&parser, "m");
  parser.AddString("i", &input, "training features <dfs-root>:<dataset>")
      .AddString("val", &val_input, "validation features <dfs-root>:<dataset>")
      .AddString("t", &task, "task (single|multi|auc)")
      .AddInt("workers", &workers, "trainer workers")
      .AddInt("epochs", &epochs, "training epochs")
      .AddInt("batch", &batch, "batch size")
      .AddString("sync", &sync,
                 "consistency (async|bsp|ssp; --coord: bsp|ssp)")
      .AddInt("staleness", &staleness,
              "SSP clock slack in batches (-1 = unbounded, 0 = BSP-exact)")
      .AddInt("prefetch", &prefetch, "pipeline reader queue depth")
      .AddBool("stream", &stream,
               "stream features off the DFS (O(prefetch x batch) memory)")
      .AddBool("no-pipeline", &no_pipeline,
               "run the stages inline (disables the training pipeline)")
      .AddDouble("lr", &lr, "Adam learning rate")
      .AddDouble("dropout", &model.dropout, "dropout probability")
      .AddInt("checkpoint-every-batches", &checkpoint_every,
              "write a resumable mid-epoch checkpoint every N global "
              "batches (0 = epoch-boundary checkpoints only)")
      .AddBool("resume", &resume,
               "resume from the latest mid-epoch checkpoint on the input "
               "DFS root if one exists")
      .AddString("failpoints", &failpoints,
                 "fault-injection spec, e.g. 'ps.push=error(0.1);seed=7'")
      .AddString("o", &output, "model output <dfs-root>:<dataset>");
  coord.Register(&parser);
  AGL_RETURN_IF_ERROR(parser.Parse(args));
  if (input.empty() || output.empty()) {
    return Usage("train requires -i and -o", parser);
  }
  if (stream && coord.enabled()) {
    return agl::Status::InvalidArgument(
        "--stream trains in-process only; it cannot be combined with "
        "--coord");
  }
  AGL_RETURN_IF_ERROR(ArmFailpoints(failpoints));
  AGL_RETURN_IF_ERROR(coord.Open());
  AGL_ASSIGN_OR_RETURN(DfsLocation in, OpenDfsLocation(input));

  // Streaming keeps memory bounded: only the first feature is read up
  // front (the input width is needed to shape the model).
  std::vector<subgraph::GraphFeature> features;
  std::optional<trainer::DfsFeatureSource> source;
  int64_t in_dim = 0;
  if (stream) {
    AGL_ASSIGN_OR_RETURN(source,
                         trainer::DfsFeatureSource::Open(in.dfs, in.dataset));
    // Probe part files until the first record (leading parts may be
    // empty); read errors surface as themselves, not as "empty dataset".
    for (int64_t part = 0; part < source->num_parts() && !in_dim; ++part) {
      agl::Status probe = source->ScanPart(
          part, [&in_dim](subgraph::GraphFeature gf) {
            in_dim = gf.node_features.cols();
            return agl::Status::Aborted("first record read");
          });
      if (!probe.ok() && probe.code() != agl::StatusCode::kAborted) {
        return probe;
      }
    }
  } else {
    AGL_ASSIGN_OR_RETURN(features, LoadGraphFeatures(in.dfs, in.dataset));
    if (!features.empty()) in_dim = features[0].node_features.cols();
  }
  if (!in_dim) return agl::Status::InvalidArgument("no training features");

  std::vector<subgraph::GraphFeature> val;
  if (!val_input.empty()) {
    AGL_ASSIGN_OR_RETURN(DfsLocation v, OpenDfsLocation(val_input));
    AGL_ASSIGN_OR_RETURN(val, LoadGraphFeatures(v.dfs, v.dataset));
  }

  trainer::TrainerConfig config;
  AGL_ASSIGN_OR_RETURN(config.model, model.Config(in_dim));
  AGL_ASSIGN_OR_RETURN(config.task, ParseTask(task));
  AGL_ASSIGN_OR_RETURN(config.sync_mode, ParseSync(sync));
  config.staleness_bound =
      staleness < 0 ? ps::kUnboundedStaleness : staleness;
  config.prefetch_batches = static_cast<int>(prefetch);
  config.use_pipeline = !no_pipeline;
  config.num_workers = static_cast<int>(workers);
  config.epochs = static_cast<int>(epochs);
  config.batch_size = static_cast<int>(batch);
  config.adam.lr = static_cast<float>(lr);
  config.verbose = true;
  if (checkpoint_every > 0 || resume) {
    // Mid-epoch checkpoints live next to the training features; the
    // trainer validates mode compatibility (async/streaming reject them).
    config.checkpoint_dfs = &in.dfs;
    config.checkpoint_every_batches = checkpoint_every;
    config.resume = resume;
  }
  // A streaming run trains straight off the source the probe opened.
  if (stream) AGL_RETURN_IF_ERROR(config.Validate());
  AGL_ASSIGN_OR_RETURN(
      const trainer::TrainReport report,
      coord.enabled()
          ? driver::TrainProcesses(coord.options(), config, features, val,
                                   coord.stats())
      : stream ? trainer::GraphTrainer(config).TrainStreaming(*source, val)
               : Run(config, features, val));

  AGL_ASSIGN_OR_RETURN(DfsLocation out, OpenDfsLocation(output));
  AGL_RETURN_IF_ERROR(out.dfs.WriteDataset(
      out.dataset, {SerializeState(report.final_state)}, 1));
  if (val.empty()) {
    std::printf("trained %s (no validation set given), model -> %s\n",
                model.type.c_str(), output.c_str());
  } else {
    std::printf("trained %s: best val metric %.4f, model -> %s\n",
                model.type.c_str(), report.best_val_metric,
                output.c_str());
  }
  coord.PrintStats();
  return agl::Status::OK();
}

agl::Status RunInferCmd(const std::vector<std::string>& args) {
  std::string model_spec, node_csv, edge_csv, output, failpoints;
  int64_t workers = 4, shards = 1, batch_slices = 1, cache_mb = 0;
  ModelFlags model;
  FlagParser parser;
  model.Register(&parser, "model-type");
  parser.AddString("m", &model_spec, "trained model <dfs-root>:<dataset>")
      .AddString("n", &node_csv, "node table CSV")
      .AddString("e", &edge_csv, "edge table CSV")
      .AddInt("workers", &workers, "MapReduce workers")
      .AddInt("shards", &shards, "inference shards")
      .AddInt("batch-slices", &batch_slices,
              "target slices batched through the pipeline (>1 enables the "
              "cross-slice embedding cache path)")
      .AddInt("cache-mb", &cache_mb,
              "embedding-cache budget in MiB (0 = off, -1 = unbounded); "
              "evictions spill to <dfs-root>/infer_cache.spill")
      .AddString("failpoints", &failpoints,
                 "fault-injection spec, e.g. 'infer.spill=crash@3x1'")
      .AddString("o", &output, "scores CSV output path");
  AGL_RETURN_IF_ERROR(parser.Parse(args));
  if (model_spec.empty() || node_csv.empty() || edge_csv.empty() ||
      output.empty()) {
    return Usage("infer requires -m, -n, -e and -o", parser);
  }
  AGL_RETURN_IF_ERROR(ArmFailpoints(failpoints));

  AGL_ASSIGN_OR_RETURN(const DfsLocation loc, OpenDfsLocation(model_spec));
  AGL_ASSIGN_OR_RETURN(const auto state, LoadModel(loc, model_spec));
  AGL_ASSIGN_OR_RETURN(const Tables t, ReadTables(node_csv, edge_csv));

  infer::InferConfig config;
  AGL_ASSIGN_OR_RETURN(
      config.model,
      model.Config(static_cast<int64_t>(t.nodes[0].features.size())));
  config.job.num_workers = static_cast<int>(workers);
  config.num_shards = static_cast<int>(shards);
  config.batch_slices = static_cast<int>(batch_slices);
  // With a single slice every (node, round) is reduced exactly once, so a
  // cache could never hit — don't pay its bookkeeping for nothing.
  const bool batched = batch_slices > 1;
  if (!batched && cache_mb != 0) {
    std::fprintf(stderr,
                 "note: --cache-mb only takes effect with --batch-slices > "
                 "1; running unbatched without a cache\n");
  }
  if (batched) {
    config.cache_budget_bytes =
        cache_mb < 0 ? int64_t{-1} : cache_mb * (int64_t{1} << 20);
    if (config.cache_budget_bytes > 0) {
      config.cache_spill_path = loc.dfs.root() + "/infer_cache.spill";
    }
  }
  // The facade routes to the batched driver iff the config enables it
  // (batch_slices > 1 / cache on) — same scores either way. GraphInfer
  // checks that the artifact fits the model flags and the node table.
  AGL_ASSIGN_OR_RETURN(const infer::InferResult result,
                       Run(config, state, t.nodes, t.edges));
  AGL_RETURN_IF_ERROR(
      WriteCsv(output, "# node_id,scores...", [&](std::FILE* f) {
        for (const auto& [id, scores] : result.scores) {
          std::fprintf(f, "%llu", static_cast<unsigned long long>(id));
          PrintScores(f, scores);
        }
        return agl::Status::OK();
      }));
  std::printf("inferred %zu nodes in %.2fs -> %s\n", result.scores.size(),
              result.costs.time_seconds, output.c_str());
  if (batched) {
    std::printf(
        "batched: %d slices, %lld embedding evals, cache %lld hits / "
        "%lld misses (%lld spilled, %lld spill hits)\n",
        result.num_slices,
        static_cast<long long>(result.costs.embedding_evaluations),
        static_cast<long long>(result.costs.cache_hits),
        static_cast<long long>(result.costs.cache_misses),
        static_cast<long long>(result.costs.cache_spilled),
        static_cast<long long>(result.costs.cache_spill_hits));
  }
  return agl::Status::OK();
}

agl::Status RunGenDataCmd(const std::vector<std::string>& args) {
  std::string kind = "uug", nodes_out, edges_out;
  int64_t num_nodes = 1000, feature_dim = 16;
  FlagParser parser;
  parser.AddString("d", &kind, "dataset kind (uug|cora|ppi)")
      .AddInt("n", &num_nodes, "node count (uug/cora)")
      .AddInt("f", &feature_dim, "feature dim (uug)")
      .AddString("nodes-out", &nodes_out, "node table CSV path")
      .AddString("edges-out", &edges_out, "edge table CSV path");
  AGL_RETURN_IF_ERROR(parser.Parse(args));
  if (nodes_out.empty() || edges_out.empty()) {
    return Usage("gendata requires --nodes-out and --edges-out", parser);
  }
  data::Dataset ds;
  if (kind == "uug") {
    data::UugLikeOptions opts;
    opts.num_nodes = num_nodes;
    opts.feature_dim = feature_dim;
    opts.train_size = num_nodes / 2;
    opts.val_size = num_nodes / 8;
    opts.test_size = num_nodes / 4;
    ds = data::MakeUugLike(opts);
  } else if (kind == "cora") {
    data::CoraLikeOptions opts;
    opts.num_nodes = num_nodes;
    opts.val_size = num_nodes / 8;
    opts.test_size = num_nodes / 4;
    ds = data::MakeCoraLike(opts);
  } else if (kind == "ppi") {
    ds = data::MakePpiLike({});
  } else {
    return agl::Status::InvalidArgument("unknown dataset: " + kind);
  }
  AGL_RETURN_IF_ERROR(flat::WriteNodeCsvFile(nodes_out, ds.nodes));
  AGL_RETURN_IF_ERROR(flat::WriteEdgeCsvFile(edges_out, ds.edges));
  std::printf("generated %s: %lld nodes -> %s, %lld edges -> %s\n",
              ds.name.c_str(), static_cast<long long>(ds.num_nodes()),
              nodes_out.c_str(), static_cast<long long>(ds.num_edges()),
              edges_out.c_str());
  return agl::Status::OK();
}

/// `agl_cli analytics <pagerank|cc|sssp|lp> ...` — run a vertex program
/// over CSV tables. The result can go to a scores CSV (-o), a GraphFeatures
/// dataset on the DFS (--dfs-out), and/or an augmented node-table CSV with
/// the value appended as one extra feature column
/// (--augmented-nodes-out), ready to feed back into `agl_cli graphflat`.
agl::Status RunAnalyticsCmd(const std::vector<std::string>& args) {
  driver::ProgramSpec program;
  std::string node_csv, edge_csv, output, dfs_out, augmented_out, failpoints;
  int64_t workers = 4, shards = 1, max_supersteps = 100, source = 0;
  CoordFlags coord;
  FlagParser parser;
  parser.AddString("n", &node_csv, "node table CSV")
      .AddString("e", &edge_csv, "edge table CSV")
      .AddString("o", &output, "scores CSV (node_id,value per line)")
      .AddString("dfs-out", &dfs_out,
                 "also store as GraphFeatures: <dfs-root>:<dataset>")
      .AddString("augmented-nodes-out", &augmented_out,
                 "node CSV with the value appended as a feature column")
      .AddInt("workers", &workers, "MapReduce workers per shard")
      .AddInt("shards", &shards, "analytics shards (output is invariant)")
      .AddInt("max-supersteps", &max_supersteps, "superstep cap")
      .AddDouble("damping", &program.damping, "pagerank damping factor")
      .AddDouble("tolerance", &program.tolerance,
                 "pagerank activation tolerance")
      .AddInt("source", &source, "sssp source node id")
      .AddString("failpoints", &failpoints, "fault-injection spec");
  coord.Register(&parser);
  AGL_RETURN_IF_ERROR(parser.Parse(args));
  if (parser.positional().size() != 1 || node_csv.empty() ||
      edge_csv.empty()) {
    return Usage("usage: agl_cli analytics <pagerank|cc|sssp|lp> -n -e ...",
                 parser);
  }
  program.name = parser.positional()[0];
  if (output.empty() && dfs_out.empty() && augmented_out.empty()) {
    return Usage(
        "analytics requires at least one of -o, --dfs-out, "
        "--augmented-nodes-out",
        parser);
  }
  AGL_RETURN_IF_ERROR(ArmFailpoints(failpoints));
  AGL_RETURN_IF_ERROR(coord.Open());
  program.source = static_cast<flat::NodeId>(source);
  AGL_ASSIGN_OR_RETURN(const auto vertex_program,
                       driver::MakeProgram(program));
  AGL_ASSIGN_OR_RETURN(const Tables t, ReadTables(node_csv, edge_csv));

  analytics::AnalyticsConfig config;
  config.max_supersteps = static_cast<int>(max_supersteps);
  config.num_shards = static_cast<int>(shards);
  config.job.num_workers = static_cast<int>(workers);
  AGL_ASSIGN_OR_RETURN(
      const analytics::AnalyticsResult result,
      coord.enabled()
          ? driver::RunAnalyticsProcesses(coord.options(), config, program,
                                          t.nodes, t.edges, coord.stats())
          : Run(config, *vertex_program, t.nodes, t.edges));

  if (!output.empty()) {
    AGL_RETURN_IF_ERROR(
        WriteCsv(output, "# node_id," + program.name, [&](std::FILE* f) {
          for (const auto& [id, value] : result.values) {
            std::fprintf(f, "%llu,%.17g\n",
                         static_cast<unsigned long long>(id), value);
          }
          return agl::Status::OK();
        }));
  }
  if (!dfs_out.empty()) {
    AGL_ASSIGN_OR_RETURN(DfsLocation loc, OpenDfsLocation(dfs_out));
    AGL_RETURN_IF_ERROR(
        analytics::WriteValuesDataset(result, config, &loc.dfs, loc.dataset));
  }
  if (!augmented_out.empty()) {
    AGL_ASSIGN_OR_RETURN(const auto augmented,
                         analytics::AugmentNodeTable(t.nodes, result));
    AGL_RETURN_IF_ERROR(flat::WriteNodeCsvFile(augmented_out, augmented));
  }
  std::printf(
      "%s: %lld vertices, %lld gather edges, %d supersteps (%s) in %.2fs\n",
      program.name.c_str(), static_cast<long long>(result.stats.num_vertices),
      static_cast<long long>(result.stats.num_gather_edges),
      result.stats.supersteps,
      result.stats.converged ? "converged" : "superstep cap hit",
      result.stats.elapsed_seconds);
  coord.PrintStats();
  return agl::Status::OK();
}

/// `agl_cli serve` — drive the always-on inference service from a script
/// file (our stand-in for a network front end): one operation per line,
///
///   score <id,id,...>                 submit a scoring request
///   add-edge <src> <dst> <w> [f,...]  mutation (serve/mutation.h)
///   remove-edge <src> <dst>           mutation
///   update-features <node> <f,...>    mutation
///   persist                           publish the store (index + spill)
///
/// Requests admitted after a mutation line observe it — the service's
/// FIFO consistency contract. The store persists under the model's DFS
/// root, so a re-run of the same command starts warm and reports nonzero
/// cache hits — unless the script mutated the graph, in which case the
/// persisted store describes the mutated tables, a re-run from the
/// original CSVs fingerprints differently, and the service deliberately
/// starts cold rather than serve stale embeddings. Scores go to -o as
/// "request,node_id,scores...".
agl::Status RunServeCmd(const std::vector<std::string>& args) {
  std::string model_spec, node_csv, edge_csv, script_path, output,
      store_name = "embedding_store", features_dataset, failpoints;
  int64_t workers = 4, shards = 1, batch_slices = 2, store_budget_mb = -1,
          max_pending = 256, max_batch_targets = 1024, hops = 2;
  bool no_persist = false;
  ModelFlags model;
  FlagParser parser;
  model.Register(&parser, "model-type");
  parser.AddString("m", &model_spec, "trained model <dfs-root>:<dataset>")
      .AddString("n", &node_csv, "node table CSV")
      .AddString("e", &edge_csv, "edge table CSV")
      .AddString("script", &script_path,
                 "serving script: score/add-edge/remove-edge/"
                 "update-features/persist lines")
      .AddInt("workers", &workers, "MapReduce workers")
      .AddInt("shards", &shards, "inference shards")
      .AddInt("batch-slices", &batch_slices,
              "slices each coalesced batch is partitioned into")
      .AddString("store", &store_name,
                 "persistent embedding store name under the model DFS root")
      .AddInt("store-budget-mb", &store_budget_mb,
              "resident budget of the store in MiB (-1 = unbounded)")
      .AddInt("max-pending", &max_pending, "admission queue bound")
      .AddInt("max-batch-targets", &max_batch_targets,
              "coalescing cap (targets per pipeline pass)")
      .AddString("features", &features_dataset,
                 "flattened dataset (on the model DFS root) to keep fresh "
                 "via incremental re-flatten")
      .AddInt("hops", &hops, "GraphFlat hops of --features")
      .AddBool("no-persist", &no_persist,
               "skip the final store publish on exit")
      .AddString("failpoints", &failpoints,
                 "fault-injection spec, e.g. 'infer.spill=error(0.05)'")
      .AddString("o", &output, "scores CSV output path");
  AGL_RETURN_IF_ERROR(parser.Parse(args));
  if (model_spec.empty() || node_csv.empty() || edge_csv.empty() ||
      script_path.empty() || output.empty()) {
    return Usage("serve requires -m, -n, -e, --script and -o", parser);
  }
  AGL_RETURN_IF_ERROR(ArmFailpoints(failpoints));

  AGL_ASSIGN_OR_RETURN(DfsLocation loc, OpenDfsLocation(model_spec));
  AGL_ASSIGN_OR_RETURN(const auto state, LoadModel(loc, model_spec));
  AGL_ASSIGN_OR_RETURN(Tables t, ReadTables(node_csv, edge_csv));

  serve::ServeConfig config;
  AGL_ASSIGN_OR_RETURN(
      config.infer.model,
      model.Config(static_cast<int64_t>(t.nodes[0].features.size())));
  config.infer.job.num_workers = static_cast<int>(workers);
  config.infer.num_shards = static_cast<int>(shards);
  config.infer.batch_slices = static_cast<int>(batch_slices);
  config.store_name = store_name;
  config.store_budget_bytes =
      store_budget_mb < 0 ? int64_t{-1} : store_budget_mb * (int64_t{1} << 20);
  config.max_pending = static_cast<std::size_t>(max_pending);
  config.max_batch_targets = static_cast<std::size_t>(max_batch_targets);
  if (!features_dataset.empty()) {
    config.features_dataset = features_dataset;
    config.flat.hops = static_cast<int>(hops);
    config.flat.job.num_workers = static_cast<int>(workers);
  }

  std::ifstream script(script_path);
  if (!script) return agl::Status::IoError("cannot read " + script_path);
  // Start checks that the artifact fits the model flags and the node table.
  AGL_ASSIGN_OR_RETURN(
      const std::unique_ptr<serve::InferenceService> service,
      Run(config, state, std::move(t.nodes), std::move(t.edges), &loc.dfs));

  AGL_RETURN_IF_ERROR(WriteCsv(
      output, "# request,node_id,scores...", [&](std::FILE* f) {
        std::string line;
        int lineno = 0, request = 0;
        while (std::getline(script, line)) {
          ++lineno;
          const std::size_t first = line.find_first_not_of(" \t\r");
          if (first == std::string::npos || line[first] == '#') continue;
          std::istringstream in(line);
          std::string op;
          in >> op;
          agl::Status status = agl::Status::OK();
          if (op == "score") {
            std::string ids_csv;
            in >> ids_csv;
            std::vector<flat::NodeId> targets;
            std::stringstream ids(ids_csv);
            std::string id;
            while (std::getline(ids, id, ',')) {
              targets.push_back(std::strtoull(id.c_str(), nullptr, 10));
            }
            auto scores = service->Score(std::move(targets));
            if (scores.ok()) {
              for (const auto& [node, vec] : *scores) {
                std::fprintf(f, "%d,%llu", request,
                             static_cast<unsigned long long>(node));
                PrintScores(f, vec);
              }
              ++request;
            } else {
              status = scores.status();
            }
          } else if (op == "persist") {
            status = service->Persist();
          } else {
            auto mutation = serve::Mutation::Parse(line);
            status = mutation.ok() ? service->ApplyMutations({*mutation})
                                   : mutation.status();
          }
          if (!status.ok()) {
            return agl::Status(status.code(),
                               script_path + ":" + std::to_string(lineno) +
                                   ": " + status.message());
          }
        }
        return agl::Status::OK();
      }));
  if (!no_persist) AGL_RETURN_IF_ERROR(service->Persist());
  const serve::ServeStats stats = service->stats();
  AGL_RETURN_IF_ERROR(service->Shutdown());
  std::printf(
      "served %lld requests in %lld passes (%.2fs inference), "
      "%lld mutations in %lld batches\n",
      static_cast<long long>(stats.served),
      static_cast<long long>(stats.batches), stats.infer_seconds,
      static_cast<long long>(stats.mutations_applied),
      static_cast<long long>(stats.mutation_batches));
  std::printf(
      "store[%s]: %s, %lld hits / %lld misses (%lld spill hits), "
      "%lld invalidation floors -> %s\n",
      store_name.c_str(), stats.opened_warm ? "warm" : "cold",
      static_cast<long long>(stats.store.hits),
      static_cast<long long>(stats.store.misses),
      static_cast<long long>(stats.store.spill_hits),
      static_cast<long long>(stats.invalidated_nodes), output.c_str());
  return agl::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  // Worker processes re-enter through this same binary; divert them
  // before any user flag parsing.
  if (auto code = agl::driver::RunWorkerIfSpawned(argc, argv)) return *code;
  using Command = agl::Status (*)(const std::vector<std::string>&);
  const std::map<std::string, Command> commands = {
      {"graphflat", RunGraphFlatCmd}, {"train", RunTrainCmd},
      {"infer", RunInferCmd},         {"serve", RunServeCmd},
      {"gendata", RunGenDataCmd},     {"analytics", RunAnalyticsCmd}};
  auto it = argc < 2 ? commands.end() : commands.find(argv[1]);
  if (it == commands.end()) {
    std::fprintf(stderr,
                 "usage: agl_cli "
                 "<graphflat|train|infer|serve|gendata|analytics> [flags]\n");
    return 1;
  }
  const agl::Status status =
      it->second(std::vector<std::string>(argv + 2, argv + argc));
  if (status.ok()) return 0;
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}
