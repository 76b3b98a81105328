// Streaming access to GraphFeature datasets on the DFS.
//
// The paper's workers "just have to process their own partitions of
// training data" read from disk; this wrapper gives each worker its shard
// of a DFS dataset without materializing the others — part files are
// assigned round-robin to workers, and records stream through the
// checksummed reader one at a time.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/record_file.h"
#include "mr/local_dfs.h"
#include "subgraph/graph_feature.h"

namespace agl::trainer {

/// A handle on one GraphFeature dataset.
class DfsFeatureSource {
 public:
  /// Binds to `dataset` inside `dfs`; kNotFound when it is not published.
  /// A sharded GraphFlat publishes one unified dataset, so its
  /// "<dataset>.shard-NN" staging slices are never read: a slice alone is
  /// part of a dataset, not the dataset.
  static agl::Result<DfsFeatureSource> Open(const mr::LocalDfs& dfs,
                                            const std::string& dataset);

  /// Number of part files (the sharding granularity).
  int64_t num_parts() const { return static_cast<int64_t>(parts_.size()); }

  /// Parses every record of the parts assigned to `worker` out of
  /// `num_workers` (parts are dealt round-robin; workers beyond the part
  /// count receive empty shards).
  agl::Result<std::vector<subgraph::GraphFeature>> ReadShard(
      int worker, int num_workers) const;

  /// Parses the entire dataset.
  agl::Result<std::vector<subgraph::GraphFeature>> ReadAll() const;

 private:
  friend class StreamingShardReader;

  explicit DfsFeatureSource(std::vector<std::string> parts)
      : parts_(std::move(parts)) {}

  std::vector<std::string> parts_;  // absolute part-file paths, sorted
};

/// One worker's shard of a feature dataset, read as a synchronous cursor.
///
/// Unlike ReadShard (which materializes the whole shard up front), each
/// Next() parses at most one batch off the one open part file, so the
/// reader holds O(batch_size) features. It runs in whichever stage calls
/// it: in the trainer that is the reader/prep stage, whose bounded queue
/// (TrainerConfig::prefetch_batches) is the only run-ahead.
class StreamingShardReader {
 public:
  struct Options {
    int64_t batch_size = 32;
  };

  /// A reader over the parts of `source` assigned to `worker` out of
  /// `num_workers` (round-robin, exactly ReadShard's assignment, so the
  /// record order matches the materialized path). No file is opened
  /// until the first Next(); the source need not outlive the reader.
  static agl::Result<StreamingShardReader> Open(
      const DfsFeatureSource& source, int worker, int num_workers,
      const Options& options);

  /// The next batch (up to batch_size features, in shard order). An empty
  /// vector signals a cleanly exhausted shard; a read or parse error is
  /// returned by this and every later call.
  agl::Result<std::vector<subgraph::GraphFeature>> Next();

 private:
  StreamingShardReader(std::vector<std::string> parts, int64_t batch_size)
      : parts_(std::move(parts)), batch_size_(batch_size) {}
  agl::Result<std::vector<subgraph::GraphFeature>> ReadBatch();

  std::vector<std::string> parts_;  // this shard's part files, read order
  int64_t batch_size_;
  std::size_t next_part_ = 0;             // next part file to open
  std::optional<io::RecordReader> part_;  // the open part file, if any
  agl::Status status_;                    // first error, returned forever
};

}  // namespace agl::trainer
