// Job-spec codecs for the multi-process driver: everything a spawned
// worker process needs to run its slice of a job — the job config, its
// table/feature partition, and the result/error payloads it reports back —
// serialized through the shared DFS. The encodings reuse the row/state
// serializers the pipelines already emit (NodeRecord/EdgeRecord/
// GraphFeature/state dicts), so a value that crosses the process boundary
// is byte-identical to its in-process twin.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analytics/vertex_program.h"
#include "common/status.h"
#include "io/codec.h"
#include "flat/exchange.h"
#include "flat/graphflat.h"
#include "flat/tables.h"
#include "mr/mapreduce.h"
#include "trainer/trainer.h"

namespace agl::driver {

/// Which vertex program an analytics shard process should instantiate —
/// programs are stateless-by-parameters, so a name + scalars round-trips
/// them across the exec boundary.
struct ProgramSpec {
  std::string name;  // "pagerank" | "cc" | "sssp" | "lp"
  double damping = 0.85;
  double tolerance = 1e-10;
  flat::NodeId source = 0;  // sssp only
};

/// Builds the program a spec names (analytics::MakeProgram);
/// kInvalidArgument for unknown names or out-of-range parameters.
agl::Result<std::unique_ptr<analytics::VertexProgram>> MakeProgram(
    const ProgramSpec& spec);

// --- status -----------------------------------------------------------------

void PutStatus(io::BufferWriter* w, const agl::Status& status);
agl::Status GetStatus(io::BufferReader* r, agl::Status* out);

// --- table slices -----------------------------------------------------------

/// One shard's map input: its node rows followed by its incident edges.
std::string EncodeTableSlice(const std::vector<flat::NodeRecord>& nodes,
                             const std::vector<flat::EdgeRecord>& edges);
agl::Status DecodeTableSlice(const std::string& bytes,
                             std::vector<flat::NodeRecord>* nodes,
                             std::vector<flat::EdgeRecord>* edges);

// --- job metas --------------------------------------------------------------

std::string EncodeFlatShardJob(const flat::FlatShardJob& job);
agl::Result<flat::FlatShardJob> DecodeFlatShardJob(const std::string& bytes);

/// An analytics shard job plus the program every shard instantiates.
struct AnalyticsJob {
  analytics::AnalyticsShardJob shard;
  ProgramSpec program;
};
std::string EncodeAnalyticsJob(const AnalyticsJob& job);
agl::Result<AnalyticsJob> DecodeAnalyticsJob(const std::string& bytes);

/// Trainer worker-job meta. Only the schedule-shaping scalar config
/// travels; DFS pointers and warm-start state stay with the driver (the
/// worker pulls parameters from the wire PS).
struct TrainJobMeta {
  trainer::TrainerConfig config;
  /// Workers actually running (partition count; <= config.num_workers).
  int active_workers = 0;
  int64_t num_examples = 0;
};
std::string EncodeTrainJobMeta(const TrainJobMeta& meta);
agl::Result<TrainJobMeta> DecodeTrainJobMeta(const std::string& bytes);

// --- worker reports ---------------------------------------------------------

/// One trainer worker's epoch outcome (internal::WorkerResult + status).
std::string EncodeWorkerResult(const trainer::internal::WorkerResult& res);
agl::Result<trainer::internal::WorkerResult> DecodeWorkerResult(
    const std::string& bytes);

/// One shard process's output, as the shard runners return it.
std::string EncodeFlatShardOutput(const flat::FlatShardOutput& out);
agl::Result<flat::FlatShardOutput> DecodeFlatShardOutput(
    const std::string& bytes);
std::string EncodeAnalyticsShardOutput(
    const analytics::AnalyticsShardOutput& out);
agl::Result<analytics::AnalyticsShardOutput> DecodeAnalyticsShardOutput(
    const std::string& bytes);

}  // namespace agl::driver
