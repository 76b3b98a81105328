#include "driver/spec.h"

#include <utility>

#include "analytics/programs.h"

namespace agl::driver {

namespace {

void PutInt(io::BufferWriter* w, int64_t v) { w->PutVarint64Signed(v); }

agl::Status GetInt(io::BufferReader* r, int64_t* out) {
  return r->GetVarint64Signed(out);
}

agl::Status GetIntAs(io::BufferReader* r, int* out) {
  int64_t v = 0;
  AGL_RETURN_IF_ERROR(r->GetVarint64Signed(&v));
  *out = static_cast<int>(v);
  return agl::Status::OK();
}

void PutInt64Vector(io::BufferWriter* w, const std::vector<int64_t>& v) {
  w->PutVarint64(v.size());
  for (int64_t x : v) w->PutVarint64Signed(x);
}

agl::Status GetInt64Vector(io::BufferReader* r, std::vector<int64_t>* out) {
  uint64_t n = 0;
  AGL_RETURN_IF_ERROR(r->GetVarint64(&n));
  if (n > r->remaining()) {
    return agl::Status::Corruption("vector length overflows its record");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t x = 0;
    AGL_RETURN_IF_ERROR(r->GetVarint64Signed(&x));
    out->push_back(x);
  }
  return agl::Status::OK();
}

void PutJobConfig(io::BufferWriter* w, const mr::JobConfig& c) {
  PutInt(w, c.num_workers);
  PutInt(w, c.num_map_tasks);
  PutInt(w, c.num_reduce_tasks);
  PutInt(w, c.max_task_attempts);
  w->PutDouble(c.backoff_initial_ms);
  w->PutDouble(c.backoff_max_ms);
  w->PutDouble(c.retry_deadline_ms);
  w->PutVarint64(c.seed);
}

agl::Status GetJobConfig(io::BufferReader* r, mr::JobConfig* c) {
  AGL_RETURN_IF_ERROR(GetIntAs(r, &c->num_workers));
  AGL_RETURN_IF_ERROR(GetIntAs(r, &c->num_map_tasks));
  AGL_RETURN_IF_ERROR(GetIntAs(r, &c->num_reduce_tasks));
  AGL_RETURN_IF_ERROR(GetIntAs(r, &c->max_task_attempts));
  AGL_RETURN_IF_ERROR(r->GetDouble(&c->backoff_initial_ms));
  AGL_RETURN_IF_ERROR(r->GetDouble(&c->backoff_max_ms));
  AGL_RETURN_IF_ERROR(r->GetDouble(&c->retry_deadline_ms));
  return r->GetVarint64(&c->seed);
}

void PutJobStats(io::BufferWriter* w, const mr::JobStats& stats) {
  PutInt(w, stats.map_tasks);
  PutInt(w, stats.reduce_tasks);
  PutInt(w, stats.failed_attempts);
  PutInt(w, stats.task_attempts);
  w->PutDouble(stats.retry_backoff_ms);
  PutInt(w, stats.input_records);
  PutInt(w, stats.shuffled_records);
  PutInt(w, stats.output_records);
  PutInt(w, stats.max_reduce_task_records);
  w->PutDouble(stats.elapsed_seconds);
}

agl::Status GetJobStats(io::BufferReader* r, mr::JobStats* out) {
  AGL_RETURN_IF_ERROR(GetInt(r, &out->map_tasks));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->reduce_tasks));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->failed_attempts));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->task_attempts));
  AGL_RETURN_IF_ERROR(r->GetDouble(&out->retry_backoff_ms));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->input_records));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->shuffled_records));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->output_records));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->max_reduce_task_records));
  return r->GetDouble(&out->elapsed_seconds);
}

void PutExchangeStats(io::BufferWriter* w, const flat::ExchangeStats& stats) {
  PutInt(w, stats.publishes);
  PutInt(w, stats.collects);
  PutInt(w, stats.allgathers);
  PutInt(w, stats.records_published);
  PutInt(w, stats.records_collected);
  PutInt(w, stats.bytes_published);
  PutInt(w, stats.bytes_collected);
  w->PutDouble(stats.wait_seconds);
}

agl::Status GetExchangeStats(io::BufferReader* r, flat::ExchangeStats* out) {
  AGL_RETURN_IF_ERROR(GetInt(r, &out->publishes));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->collects));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->allgathers));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->records_published));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->records_collected));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->bytes_published));
  AGL_RETURN_IF_ERROR(GetInt(r, &out->bytes_collected));
  return r->GetDouble(&out->wait_seconds);
}

}  // namespace

agl::Result<std::unique_ptr<analytics::VertexProgram>> MakeProgram(
    const ProgramSpec& spec) {
  return analytics::MakeProgram(spec.name,
                                {spec.damping, spec.tolerance, spec.source});
}

void PutStatus(io::BufferWriter* w, const agl::Status& status) {
  w->PutVarint64(static_cast<uint64_t>(status.code()));
  w->PutString(status.message());
}

agl::Status GetStatus(io::BufferReader* r, agl::Status* out) {
  uint64_t code = 0;
  std::string message;
  AGL_RETURN_IF_ERROR(r->GetVarint64(&code));
  AGL_RETURN_IF_ERROR(r->GetString(&message));
  if (code > static_cast<uint64_t>(agl::StatusCode::kInternal)) {
    return agl::Status::Corruption("status code out of range");
  }
  *out = code == 0 ? agl::Status::OK()
                   : agl::Status(static_cast<agl::StatusCode>(code),
                                 std::move(message));
  return agl::Status::OK();
}

std::string EncodeTableSlice(const std::vector<flat::NodeRecord>& nodes,
                             const std::vector<flat::EdgeRecord>& edges) {
  io::BufferWriter w;
  w.PutVarint64(nodes.size());
  for (const flat::NodeRecord& n : nodes) w.PutString(n.Serialize());
  w.PutVarint64(edges.size());
  for (const flat::EdgeRecord& e : edges) w.PutString(e.Serialize());
  return w.Release();
}

agl::Status DecodeTableSlice(const std::string& bytes,
                             std::vector<flat::NodeRecord>* nodes,
                             std::vector<flat::EdgeRecord>* edges) {
  io::BufferReader r(bytes);
  uint64_t n = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&n));
  nodes->clear();
  nodes->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string row;
    AGL_RETURN_IF_ERROR(r.GetString(&row));
    AGL_ASSIGN_OR_RETURN(flat::NodeRecord rec, flat::NodeRecord::Parse(row));
    nodes->push_back(std::move(rec));
  }
  AGL_RETURN_IF_ERROR(r.GetVarint64(&n));
  edges->clear();
  edges->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string row;
    AGL_RETURN_IF_ERROR(r.GetString(&row));
    AGL_ASSIGN_OR_RETURN(flat::EdgeRecord rec, flat::EdgeRecord::Parse(row));
    edges->push_back(std::move(rec));
  }
  if (!r.AtEnd()) {
    return agl::Status::Corruption("table slice has trailing bytes");
  }
  return agl::Status::OK();
}

std::string EncodeFlatShardJob(const flat::FlatShardJob& job) {
  io::BufferWriter w;
  const flat::GraphFlatConfig& c = job.config;
  PutInt(&w, c.hops);
  w.PutVarint64(static_cast<uint64_t>(c.sampler.strategy));
  PutInt(&w, c.sampler.max_neighbors);
  PutInt(&w, c.hub_threshold);
  PutInt(&w, c.reindex_fanout);
  w.PutVarint64(static_cast<uint64_t>(c.targets));
  PutInt(&w, c.output_parts);
  PutInt(&w, c.num_shards);
  PutJobConfig(&w, c.job);
  PutInt(&w, job.node_feature_dim);
  PutInt(&w, job.edge_feature_dim);
  return w.Release();
}

agl::Result<flat::FlatShardJob> DecodeFlatShardJob(const std::string& bytes) {
  io::BufferReader r(bytes);
  flat::FlatShardJob job;
  flat::GraphFlatConfig& c = job.config;
  uint64_t e = 0;
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.hops));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&e));
  c.sampler.strategy = static_cast<sampling::Strategy>(e);
  AGL_RETURN_IF_ERROR(GetInt(&r, &c.sampler.max_neighbors));
  AGL_RETURN_IF_ERROR(GetInt(&r, &c.hub_threshold));
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.reindex_fanout));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&e));
  c.targets = static_cast<flat::GraphFlatConfig::Targets>(e);
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.output_parts));
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.num_shards));
  AGL_RETURN_IF_ERROR(GetJobConfig(&r, &c.job));
  AGL_RETURN_IF_ERROR(GetInt(&r, &job.node_feature_dim));
  AGL_RETURN_IF_ERROR(GetInt(&r, &job.edge_feature_dim));
  if (!r.AtEnd()) {
    return agl::Status::Corruption("flat shard job has trailing bytes");
  }
  return job;
}

std::string EncodeAnalyticsJob(const AnalyticsJob& job) {
  io::BufferWriter w;
  const analytics::AnalyticsConfig& c = job.shard.config;
  PutInt(&w, c.max_supersteps);
  PutInt(&w, c.num_shards);
  PutInt(&w, c.output_parts);
  PutJobConfig(&w, c.job);
  PutInt(&w, job.shard.num_vertices);
  w.PutString(job.program.name);
  w.PutDouble(job.program.damping);
  w.PutDouble(job.program.tolerance);
  w.PutVarint64(job.program.source);
  return w.Release();
}

agl::Result<AnalyticsJob> DecodeAnalyticsJob(const std::string& bytes) {
  io::BufferReader r(bytes);
  AnalyticsJob job;
  analytics::AnalyticsConfig& c = job.shard.config;
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.max_supersteps));
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.num_shards));
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.output_parts));
  AGL_RETURN_IF_ERROR(GetJobConfig(&r, &c.job));
  AGL_RETURN_IF_ERROR(GetInt(&r, &job.shard.num_vertices));
  AGL_RETURN_IF_ERROR(r.GetString(&job.program.name));
  AGL_RETURN_IF_ERROR(r.GetDouble(&job.program.damping));
  AGL_RETURN_IF_ERROR(r.GetDouble(&job.program.tolerance));
  uint64_t source = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&source));
  job.program.source = source;
  if (!r.AtEnd()) {
    return agl::Status::Corruption("analytics job has trailing bytes");
  }
  return job;
}

std::string EncodeTrainJobMeta(const TrainJobMeta& meta) {
  io::BufferWriter w;
  const trainer::TrainerConfig& c = meta.config;
  w.PutVarint64(static_cast<uint64_t>(c.model.type));
  PutInt(&w, c.model.num_layers);
  PutInt(&w, c.model.in_dim);
  PutInt(&w, c.model.hidden_dim);
  PutInt(&w, c.model.out_dim);
  PutInt(&w, c.model.gat_heads);
  w.PutFloat(c.model.dropout);
  w.PutVarint64(c.model.use_pruning ? 1 : 0);
  PutInt(&w, c.model.aggregation_threads);
  w.PutVarint64(c.model.seed);
  w.PutVarint64(static_cast<uint64_t>(c.task));
  w.PutVarint64(static_cast<uint64_t>(c.sync_mode));
  PutInt(&w, c.num_workers);
  PutInt(&w, c.ps_shards);
  w.PutFloat(c.adam.lr);
  w.PutFloat(c.adam.beta1);
  w.PutFloat(c.adam.beta2);
  w.PutFloat(c.adam.eps);
  w.PutFloat(c.adam.weight_decay);
  PutInt(&w, c.batch_size);
  PutInt(&w, c.epochs);
  w.PutVarint64(c.use_pipeline ? 1 : 0);
  PutInt(&w, c.prefetch_batches);
  PutInt(&w, c.staleness_bound);
  w.PutVarint64(c.seed);
  PutInt(&w, meta.active_workers);
  PutInt(&w, meta.num_examples);
  return w.Release();
}

agl::Result<TrainJobMeta> DecodeTrainJobMeta(const std::string& bytes) {
  io::BufferReader r(bytes);
  TrainJobMeta meta;
  trainer::TrainerConfig& c = meta.config;
  uint64_t e = 0;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&e));
  c.model.type = static_cast<gnn::ModelType>(e);
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.model.num_layers));
  AGL_RETURN_IF_ERROR(GetInt(&r, &c.model.in_dim));
  AGL_RETURN_IF_ERROR(GetInt(&r, &c.model.hidden_dim));
  AGL_RETURN_IF_ERROR(GetInt(&r, &c.model.out_dim));
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.model.gat_heads));
  AGL_RETURN_IF_ERROR(r.GetFloat(&c.model.dropout));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&e));
  c.model.use_pruning = e != 0;
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.model.aggregation_threads));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&c.model.seed));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&e));
  c.task = static_cast<trainer::TaskKind>(e);
  AGL_RETURN_IF_ERROR(r.GetVarint64(&e));
  c.sync_mode = static_cast<trainer::SyncMode>(e);
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.num_workers));
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.ps_shards));
  AGL_RETURN_IF_ERROR(r.GetFloat(&c.adam.lr));
  AGL_RETURN_IF_ERROR(r.GetFloat(&c.adam.beta1));
  AGL_RETURN_IF_ERROR(r.GetFloat(&c.adam.beta2));
  AGL_RETURN_IF_ERROR(r.GetFloat(&c.adam.eps));
  AGL_RETURN_IF_ERROR(r.GetFloat(&c.adam.weight_decay));
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.batch_size));
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.epochs));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&e));
  c.use_pipeline = e != 0;
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &c.prefetch_batches));
  AGL_RETURN_IF_ERROR(GetInt(&r, &c.staleness_bound));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&c.seed));
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &meta.active_workers));
  AGL_RETURN_IF_ERROR(GetInt(&r, &meta.num_examples));
  if (!r.AtEnd()) {
    return agl::Status::Corruption("train job meta has trailing bytes");
  }
  return meta;
}

std::string EncodeWorkerResult(const trainer::internal::WorkerResult& res) {
  io::BufferWriter w;
  w.PutDouble(res.loss_sum);
  PutInt(&w, res.batches);
  w.PutDouble(res.prep_seconds);
  w.PutDouble(res.compute_seconds);
  w.PutDouble(res.comm_seconds);
  PutStatus(&w, res.status);
  return w.Release();
}

agl::Result<trainer::internal::WorkerResult> DecodeWorkerResult(
    const std::string& bytes) {
  io::BufferReader r(bytes);
  trainer::internal::WorkerResult res;
  AGL_RETURN_IF_ERROR(r.GetDouble(&res.loss_sum));
  AGL_RETURN_IF_ERROR(GetInt(&r, &res.batches));
  AGL_RETURN_IF_ERROR(r.GetDouble(&res.prep_seconds));
  AGL_RETURN_IF_ERROR(r.GetDouble(&res.compute_seconds));
  AGL_RETURN_IF_ERROR(r.GetDouble(&res.comm_seconds));
  AGL_RETURN_IF_ERROR(GetStatus(&r, &res.status));
  if (!r.AtEnd()) {
    return agl::Status::Corruption("worker result has trailing bytes");
  }
  return res;
}

std::string EncodeFlatShardOutput(const flat::FlatShardOutput& out) {
  io::BufferWriter w;
  w.PutString(flat::SerializeExchangeRecords(out.records));
  PutJobStats(&w, out.job_stats);
  PutExchangeStats(&w, out.exchange);
  return w.Release();
}

agl::Result<flat::FlatShardOutput> DecodeFlatShardOutput(
    const std::string& bytes) {
  io::BufferReader r(bytes);
  flat::FlatShardOutput out;
  std::string records;
  AGL_RETURN_IF_ERROR(r.GetString(&records));
  AGL_ASSIGN_OR_RETURN(out.records, flat::ParseExchangeRecords(records));
  AGL_RETURN_IF_ERROR(GetJobStats(&r, &out.job_stats));
  AGL_RETURN_IF_ERROR(GetExchangeStats(&r, &out.exchange));
  if (!r.AtEnd()) {
    return agl::Status::Corruption("flat shard output has trailing bytes");
  }
  return out;
}

std::string EncodeAnalyticsShardOutput(
    const analytics::AnalyticsShardOutput& out) {
  io::BufferWriter w;
  w.PutString(flat::SerializeExchangeRecords(out.records));
  const analytics::AnalyticsStats& stats = out.stats;
  PutInt(&w, stats.supersteps);
  w.PutVarint64(stats.converged ? 1 : 0);
  PutInt64Vector(&w, stats.active_per_round);
  PutInt64Vector(&w, stats.messages_per_round);
  PutJobStats(&w, stats.job_stats);
  PutExchangeStats(&w, stats.exchange);
  return w.Release();
}

agl::Result<analytics::AnalyticsShardOutput> DecodeAnalyticsShardOutput(
    const std::string& bytes) {
  io::BufferReader r(bytes);
  analytics::AnalyticsShardOutput out;
  std::string records;
  AGL_RETURN_IF_ERROR(r.GetString(&records));
  AGL_ASSIGN_OR_RETURN(out.records, flat::ParseExchangeRecords(records));
  analytics::AnalyticsStats& stats = out.stats;
  uint64_t b = 0;
  AGL_RETURN_IF_ERROR(GetIntAs(&r, &stats.supersteps));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&b));
  stats.converged = b != 0;
  AGL_RETURN_IF_ERROR(GetInt64Vector(&r, &stats.active_per_round));
  AGL_RETURN_IF_ERROR(GetInt64Vector(&r, &stats.messages_per_round));
  AGL_RETURN_IF_ERROR(GetJobStats(&r, &stats.job_stats));
  AGL_RETURN_IF_ERROR(GetExchangeStats(&r, &stats.exchange));
  if (!r.AtEnd()) {
    return agl::Status::Corruption("analytics shard output has trailing bytes");
  }
  return out;
}

}  // namespace agl::driver
