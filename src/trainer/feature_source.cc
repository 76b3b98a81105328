#include "trainer/feature_source.h"

#include <limits>

namespace agl::trainer {

agl::Result<DfsFeatureSource> DfsFeatureSource::Open(
    const mr::LocalDfs& dfs, const std::string& dataset) {
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> parts, dfs.ListParts(dataset));
  return DfsFeatureSource(std::move(parts));
}

agl::Result<std::vector<subgraph::GraphFeature>> DfsFeatureSource::ReadShard(
    int worker, int num_workers) const {
  // The whole shard as one batch.
  AGL_ASSIGN_OR_RETURN(
      StreamingShardReader reader,
      StreamingShardReader::Open(
          *this, worker, num_workers,
          {.batch_size = std::numeric_limits<int64_t>::max()}));
  return reader.Next();
}

agl::Result<std::vector<subgraph::GraphFeature>> DfsFeatureSource::ReadAll()
    const {
  return ReadShard(0, 1);
}

agl::Result<StreamingShardReader> StreamingShardReader::Open(
    const DfsFeatureSource& source, int worker, int num_workers,
    const Options& options) {
  if (worker < 0 || num_workers <= 0 || worker >= num_workers) {
    return agl::Status::InvalidArgument("bad shard spec");
  }
  if (options.batch_size <= 0) {
    return agl::Status::InvalidArgument("batch_size must be positive");
  }
  std::vector<std::string> parts;
  for (int64_t part = worker; part < source.num_parts(); part += num_workers) {
    parts.push_back(source.parts_[part]);
  }
  return StreamingShardReader(std::move(parts), options.batch_size);
}

agl::Result<std::vector<subgraph::GraphFeature>> StreamingShardReader::Next() {
  AGL_RETURN_IF_ERROR(status_);
  agl::Result<std::vector<subgraph::GraphFeature>> batch = ReadBatch();
  if (!batch.ok()) status_ = batch.status();
  return batch;
}

agl::Result<std::vector<subgraph::GraphFeature>>
StreamingShardReader::ReadBatch() {
  std::vector<subgraph::GraphFeature> batch;
  std::string bytes;
  while (static_cast<int64_t>(batch.size()) < batch_size_) {
    if (!part_.has_value()) {
      if (next_part_ == parts_.size()) break;  // shard exhausted
      AGL_ASSIGN_OR_RETURN(io::RecordReader reader,
                           io::RecordReader::Open(parts_[next_part_++]));
      part_.emplace(std::move(reader));
    }
    agl::Status s = part_->Next(&bytes);
    if (s.code() == agl::StatusCode::kOutOfRange) {
      part_.reset();
      continue;
    }
    AGL_RETURN_IF_ERROR(s);
    AGL_ASSIGN_OR_RETURN(subgraph::GraphFeature gf,
                         subgraph::GraphFeature::Parse(bytes));
    batch.push_back(std::move(gf));
  }
  return batch;
}

}  // namespace agl::trainer
